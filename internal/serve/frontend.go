package serve

import (
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/dbdc-go/dbdc/internal/model"
)

// StartFrontEnd is what a command's -serve-classify and -metrics-addr flags
// start: a registry holding initial when it is non-nil, a Server answering on addr against it
// and, with metricsAddr, the Prometheus endpoint. It returns the registry's
// PublishFunc, which reports failures on stderr, and the channel Serve's
// result arrives on; both are nil when addr is empty. label prefixes the
// progress lines on stderr, prog the error lines. A metricsAddr without
// addr exits 2; a front end that cannot start exits 1.
func StartFrontEnd(prog, label, addr, metricsAddr string, timeout time.Duration, initial *model.GlobalModel) (func(*model.GlobalModel), <-chan error) {
	fail := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(code)
	}
	if addr == "" {
		if metricsAddr != "" {
			fail(2, errors.New("-metrics-addr needs -serve-classify"))
		}
		return nil, nil
	}
	registry := NewRegistry("")
	metrics := NewMetrics(registry)
	if initial != nil {
		if _, err := registry.Publish(initial); err != nil {
			fail(1, err)
		}
	}
	srv, err := NewServer(addr, ServerConfig{Registry: registry, Metrics: metrics, Timeout: timeout})
	if err != nil {
		fail(1, err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	fmt.Fprintf(os.Stderr, "%s: serving classification on %s\n", label, srv.Addr())
	if metricsAddr != "" {
		_, bound, err := metrics.ListenAndServe(metricsAddr)
		if err != nil {
			fail(1, err)
		}
		fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics\n", label, bound)
	}
	return registry.PublishFunc(func(err error) {
		fmt.Fprintf(os.Stderr, "%s: publishing global model: %v\n", prog, err)
	}), done
}
