// The benchmark is a module of its own so that it builds from this
// directory alone; the replace directive points it at the repository it
// measures, and the module path keeps the repository's internal packages
// importable.
module github.com/dbdc-go/dbdc/bench

go 1.22

require github.com/dbdc-go/dbdc v0.0.0

replace github.com/dbdc-go/dbdc => ../
