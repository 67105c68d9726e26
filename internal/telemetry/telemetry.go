package telemetry

// defaultRegistry is the process-wide registry every instrumented
// package records into, through the handles catalogue.go declares;
// CLIs export it with -metrics-out.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the process-wide registry.
func DefaultRegistry() *Registry { return defaultRegistry }

// defaultTracer is the process-wide span tracer, disabled until a CLI
// (or test) enables it.
var defaultTracer = NewTracer()

// DefaultTracer returns the process-wide span tracer.
func DefaultTracer() *Tracer { return defaultTracer }
