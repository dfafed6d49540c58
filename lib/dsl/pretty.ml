open Ast

(* %.12g covers every value a human writes; fall back to %.17g (always
   exact for doubles) for the rest. The lexer classifies the result as
   an Int or Float token; both read back as the same float. *)
let float_str f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let ports_str = function
  | Any_port -> "any"
  | Port p -> string_of_int p
  | Range (a, b) -> Printf.sprintf "%d..%d" a b

let clause_str = function
  | Src p -> "src " ^ Pi_pkt.Ipv4_addr.Prefix.to_string p.v
  | Proto p -> "proto " ^ proto_name p.v
  | Sport p -> "sport " ^ ports_str p.v
  | Dport p -> "dport " ^ ports_str p.v

let bpf b fmt = Printf.ksprintf (Buffer.add_string b) fmt

let field b name str = function
  | None -> ()
  | Some x -> bpf b "  %s %s\n" name (str x.v)

let subfield b name str = function
  | None -> ()
  | Some x -> bpf b "    %s %s\n" name (str x.v)

let add_topology b items =
  bpf b "topology {\n";
  List.iter
    (function
      | Server s -> bpf b "  server %s { uplink %d }\n" s.s_name.v s.s_uplink.v
      | Tenant t -> bpf b "  tenant %s { port %d }\n" t.t_name.v t.t_port.v
      | Services n -> bpf b "  services %d\n" n.v)
    items;
  bpf b "}\n"

let add_policy b (p : policy) =
  bpf b "policy %s {\n" p.p_name.v;
  field b "dialect" dialect_name p.p_dialect;
  field b "tenant" Fun.id p.p_tenant;
  List.iter
    (fun r ->
      match r.v with
      | Allow clauses ->
        bpf b "  allow %s\n" (String.concat " " (List.map clause_str clauses))
      | Deny_all -> bpf b "  deny all\n")
    p.p_rules;
  bpf b "}\n"

let add_traffic b (t : traffic) =
  bpf b "traffic {\n";
  field b "seed" string_of_int t.tr_seed;
  field b "duration" float_str t.tr_duration;
  field b "tick" float_str t.tr_tick;
  (match t.tr_victim with
   | None -> ()
   | Some v ->
     bpf b "  victim {\n";
     subfield b "tenant" Fun.id v.v.v_tenant;
     subfield b "offered_gbps" float_str v.v.v_offered_gbps;
     subfield b "pkt_len" string_of_int v.v.v_pkt_len;
     subfield b "flows" string_of_int v.v.v_flows;
     subfield b "churn" float_str v.v.v_churn;
     subfield b "samples_per_tick" string_of_int v.v.v_samples_per_tick;
     bpf b "  }\n");
  (match t.tr_attack with
   | None -> ()
   | Some a ->
     bpf b "  attack {\n";
     subfield b "policy" Fun.id a.v.a_policy;
     subfield b "start" float_str a.v.a_start;
     subfield b "stop" float_str a.v.a_stop;
     subfield b "refresh" float_str a.v.a_refresh;
     subfield b "pkt_len" string_of_int a.v.a_pkt_len;
     subfield b "exact_per_tick" string_of_int a.v.a_exact_per_tick;
     bpf b "  }\n");
  bpf b "}\n"

let add_run b (r : run) =
  bpf b "run %s {\n" r.r_name.v;
  field b "backend" backend_name r.r_backend;
  field b "shards" string_of_int r.r_shards;
  field b "batch" string_of_int r.r_batch;
  field b "upcall_queue" string_of_int r.r_upcall_queue;
  field b "mask_limit" string_of_int r.r_mask_limit;
  field b "coarsen" string_of_int r.r_coarsen;
  field b "emc" (fun on -> if on then "on" else "off") r.r_emc;
  (match r.r_assert with
   | None -> ()
   | Some asserts ->
     bpf b "  assert {\n";
     List.iter
       (fun a ->
         bpf b "    %s %s %s\n" a.as_metric.v (cmp_name a.as_cmp)
           (float_str a.as_value.v))
       asserts.v;
     bpf b "  }\n");
  bpf b "}\n"

let to_string (p : program) =
  let b = Buffer.create 1024 in
  bpf b "scenario %s\n" p.name.v;
  List.iter
    (fun blk ->
      Buffer.add_char b '\n';
      match blk with
      | Topology t -> add_topology b t.v
      | Policy pl -> add_policy b pl.v
      | Traffic t -> add_traffic b t.v
      | Run r -> add_run b r.v)
    p.blocks;
  Buffer.contents b
