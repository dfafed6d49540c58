type config = {
  depth : int option;
  handler_budget : int option;
}

let default_config = { depth = None; handler_budget = None }

let bounded ?handler_budget depth =
  if depth < 1 then invalid_arg "Upcall_queue.bounded: depth";
  (match handler_budget with
   | Some b when b < 1 -> invalid_arg "Upcall_queue.bounded: handler_budget"
   | Some _ | None -> ());
  { depth = Some depth; handler_budget }

let synchronous c = c.depth = None && c.handler_budget = None

type 'a t = {
  cfg : config;
  q : 'a Queue.t;
  mutable drops : int;
}

let create cfg =
  (match cfg.depth with
   | Some d when d < 1 -> invalid_arg "Upcall_queue.create: depth"
   | Some _ | None -> ());
  (match cfg.handler_budget with
   | Some b when b < 1 -> invalid_arg "Upcall_queue.create: handler_budget"
   | Some _ | None -> ());
  { cfg; q = Queue.create (); drops = 0 }

let config t = t.cfg

let full t =
  match t.cfg.depth with Some d -> Queue.length t.q >= d | None -> false

let drop t = t.drops <- t.drops + 1

let push t v =
  if full t then begin
    drop t;
    false
  end
  else begin
    Queue.push v t.q;
    true
  end

let pop t = Queue.take_opt t.q

let length t = Queue.length t.q
let drops t = t.drops

let budget t =
  match t.cfg.handler_budget with Some b -> b | None -> max_int

let clear t =
  (* Each pending item is a packet the fast path handed off and the
     slow path will now never classify — on the wire that packet is
     gone, so discarding counts as drops. *)
  t.drops <- t.drops + Queue.length t.q;
  Queue.clear t.q

let reset t =
  Queue.clear t.q;
  t.drops <- 0
