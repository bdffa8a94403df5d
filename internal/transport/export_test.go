package transport

// The payload parsers, for the external test package: FuzzWireDecoders
// also drives internal/serve, which imports this package.
var (
	ParseSections = parseSections
	ParseDeltaAck = parseDeltaAck
	ParseHello    = parseHello
	ParseHelloAck = parseHelloAck
)
