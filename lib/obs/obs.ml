module Counter = Counter
module Histogram = Histogram
module Span = Span
module Trace_export = Trace_export
module Metrics = Metrics
module Bench_compare = Bench_compare
module Json = Json
module Names = Names
module Scope = Scope
module Event_log = Event_log
module Prom_export = Prom_export

let enable () = Switch.on := true
let disable () = Switch.on := false
let enabled () = !Switch.on

let with_span = Span.with_span
let set_attr = Span.set_attr
let count = Counter.incr
let add = Counter.add
let observe = Histogram.observe

module Domains = struct
  let flush_worker () =
    Counter.flush_worker_cells ();
    Span.flush_worker ();
    Histogram.flush_worker ()

  let adopt_pending () =
    Span.adopt_pending ();
    Histogram.adopt_pending ()
end

let reset () =
  Metrics.reset ();
  Span.reset ()

let finished_spans = Span.finished
let report = Metrics.render

let write_trace file =
  let oc = open_out file in
  output_string oc (Trace_export.to_chrome (Span.finished ()));
  close_out oc

let write_metrics = Metrics.write
