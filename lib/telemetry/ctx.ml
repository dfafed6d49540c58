type t = {
  metrics : Metrics.t option;
  tracer : Tracer.t option;
}

let empty = { metrics = None; tracer = None }

let v ?metrics ?tracer () = { metrics; tracer }

let full () =
  { metrics = Some (Metrics.create ());
    tracer = Some (Tracer.create ()) }

let metrics t = t.metrics
let tracer t = t.tracer

let enabled t = t.metrics <> None || t.tracer <> None

let with_metrics t m = { t with metrics = Some m }
let without_tracer t = { t with tracer = None }
