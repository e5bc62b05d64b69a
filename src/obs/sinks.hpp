// ObsSinks: the observability plumbing bundle.
//
// Every subsystem that publishes metrics and/or trace spans used to carry
// its own `MetricsRegistry* metrics` + `Tracer* tracer` pair (ServeOptions,
// CampaignConfig, hook constructors, ...). ObsSinks consolidates the pair
// into one small value type so a new subsystem gets both sinks with a
// single field, and call sites wire them with one assignment.
//
// Null means off for every consumer: a null `metrics` leaves its handles
// inert (nothing is published) and a null `tracer` opens no span
// (trace_span()). There is no process-wide registry or tracer to fall
// back on; a caller that wants the numbers passes the sink. Sinks are
// observational only everywhere: outcomes, records and corrected values
// are bit-identical whichever sinks are attached.
#pragma once

namespace ft2 {

class MetricsRegistry;
class Tracer;

struct ObsSinks {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

}  // namespace ft2
