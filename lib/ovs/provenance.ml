(* Who caused a mask: provenance and per-port/per-tenant attribution.

   Two parts, split for Domain-safety under the sharded Pmd:

   - a [registry] mapping slow-path rule sequence numbers to the tenant
     (and ACL rule index) whose policy compiled them. It is written by
     the control plane (rule install / [arm_attack]) between processing
     calls and only read while packets flow, so shards can share one.

   - a per-shard [store] of mutable attribution state: per-port
     fast-path accounting, per-tenant mask/upcall tallies and the
     mask -> first-minter table. Exactly like the per-shard metrics
     registries, stores are never shared across domains.

   Everything here is off the fast path unless a store was attached:
   the datapath guards each hook with [match prov with None -> ...],
   so a provenance-less run is bit-for-bit the old one. *)

open Pi_classifier

type origin = {
  o_port : int;
  o_tenant : int;
  o_rule : int;
  o_acl_rule : int;
}

let no_tenant = -1
let no_rule = -1

let pp_origin ppf o =
  let pp_id ppf v =
    if v < 0 then Format.pp_print_char ppf '?'
    else Format.pp_print_int ppf v
  in
  Format.fprintf ppf "port:%d tenant:%a rule:%a acl#%a" o.o_port pp_id
    o.o_tenant pp_id o.o_rule pp_id o.o_acl_rule

(* --- registry --- *)

type binding = { b_tenant : int; b_acl_rule : int }

type registry = { bindings : (int, binding) Hashtbl.t }

let registry () = { bindings = Hashtbl.create 256 }

let bind reg ~tenant ?acl_rule rules =
  let idx =
    match acl_rule with Some f -> f | None -> fun _ -> no_rule
  in
  List.iter
    (fun (r : Action.t Rule.t) ->
      Hashtbl.replace reg.bindings r.Rule.seq
        { b_tenant = tenant; b_acl_rule = idx r })
    rules

(* --- per-port fast-path accounting --- *)

type port_stat = {
  ps_port : int;
  mutable ps_packets : int;
  mutable ps_emc_hits : int;
  mutable ps_mf_hits : int;
  mutable ps_mf_probes : int;
  mutable ps_upcalls : int;
  mutable ps_slow_probes : int;
  mutable ps_masks_induced : int;
  mutable ps_cycles : float;
  mutable ps_handler_cycles : float;
  m_cycles : Pi_telemetry.Histogram.t option;
      (* the [port<i>/cycles] histogram, present iff the store has a
         metrics registry; cached here so the hot path never re-resolves
         its name *)
}

(* --- per-tenant attribution --- *)

type rule_stat = {
  rs_rule : int;
  rs_acl_rule : int;
  mutable rs_masks : int;
  mutable rs_upcalls : int;
}

type tenant_stat = {
  ts_tenant : int;
  mutable ts_masks : int;
  mutable ts_megaflows : int;
  mutable ts_upcalls : int;
  mutable ts_upcall_cycles : float;
  ts_ports : (int, int ref) Hashtbl.t;  (* ingress port -> upcalls seen *)
  ts_rules : (int, rule_stat) Hashtbl.t;  (* rule seq -> tally *)
}

type store = {
  reg : registry;
  metrics : Pi_telemetry.Metrics.t option;
  mutable ports : port_stat option array;  (* indexed by ingress port *)
  mask_origins : origin Tables.Mask_tbl.t;  (* first minter of each mask *)
  tenants : (int, tenant_stat) Hashtbl.t;
}

let store ?metrics reg =
  { reg;
    metrics;
    ports = Array.make 8 None;
    mask_origins = Tables.Mask_tbl.create 64;
    tenants = Hashtbl.create 16 }

let port_stat s port =
  if port < 0 || port > 0xffff then invalid_arg "Provenance.port_stat";
  let cap = Array.length s.ports in
  if port >= cap then begin
    let arr = Array.make (max (port + 1) (2 * cap)) None in
    Array.blit s.ports 0 arr 0 cap;
    s.ports <- arr
  end;
  match s.ports.(port) with
  | Some ps -> ps
  | None ->
    let name = Printf.sprintf "port%d/%s" port in
    let ps =
      { ps_port = port;
        ps_packets = 0;
        ps_emc_hits = 0;
        ps_mf_hits = 0;
        ps_mf_probes = 0;
        ps_upcalls = 0;
        ps_slow_probes = 0;
        ps_masks_induced = 0;
        ps_cycles = 0.;
        ps_handler_cycles = 0.;
        m_cycles =
          Option.map
            (fun m -> Pi_telemetry.Metrics.histogram m (name "cycles"))
            s.metrics }
    in
    (* The labelled counters read the port's own counts. *)
    Option.iter
      (fun m ->
        let c n read = Pi_telemetry.Metrics.counter m (name n) read in
        c "packets" (fun () -> ps.ps_packets);
        c "emc_hit" (fun () -> ps.ps_emc_hits);
        c "mf_hit" (fun () -> ps.ps_mf_hits);
        c "mf_probes" (fun () -> ps.ps_mf_probes);
        c "upcall" (fun () -> ps.ps_upcalls))
      s.metrics;
    s.ports.(port) <- Some ps;
    ps

let observe h v =
  match h with Some h -> Pi_telemetry.Histogram.observe h v | None -> ()

let account s ~port ~(outcome : Cost_model.outcome) ~cycles =
  let ps = port_stat s port in
  ps.ps_packets <- ps.ps_packets + 1;
  ps.ps_cycles <- ps.ps_cycles +. cycles;
  observe ps.m_cycles cycles;
  if outcome.Cost_model.emc_hit then ps.ps_emc_hits <- ps.ps_emc_hits + 1;
  ps.ps_mf_probes <- ps.ps_mf_probes + outcome.Cost_model.mf_probes;
  if outcome.Cost_model.mf_hit then ps.ps_mf_hits <- ps.ps_mf_hits + 1;
  if outcome.Cost_model.upcall then begin
    ps.ps_upcalls <- ps.ps_upcalls + 1;
    ps.ps_slow_probes <- ps.ps_slow_probes + outcome.Cost_model.slow_probes
  end

(* Deferred handler work: the classification ran beside the fast path,
   so it lands in its own cycle bucket; the upcall itself is counted
   here too (the packet's inline outcome carried [upcall = false]). *)
let account_handler s ~port ~slow_probes ~cycles =
  let ps = port_stat s port in
  ps.ps_upcalls <- ps.ps_upcalls + 1;
  ps.ps_slow_probes <- ps.ps_slow_probes + slow_probes;
  ps.ps_handler_cycles <- ps.ps_handler_cycles +. cycles

let reset_ports s =
  Array.iter
    (function
      | Some ps ->
        ps.ps_packets <- 0;
        ps.ps_emc_hits <- 0;
        ps.ps_mf_hits <- 0;
        ps.ps_mf_probes <- 0;
        ps.ps_upcalls <- 0;
        ps.ps_slow_probes <- 0;
        ps.ps_cycles <- 0.;
        ps.ps_handler_cycles <- 0.
      | None -> ())
    s.ports

(* --- upcall attribution --- *)

let origin_for s ~port ~rule_seq =
  match Hashtbl.find_opt s.reg.bindings rule_seq with
  | Some b ->
    { o_port = port;
      o_tenant = b.b_tenant;
      o_rule = rule_seq;
      o_acl_rule = b.b_acl_rule }
  | None ->
    { o_port = port; o_tenant = no_tenant; o_rule = rule_seq;
      o_acl_rule = no_rule }

let tenant_stat s tenant =
  match Hashtbl.find_opt s.tenants tenant with
  | Some ts -> ts
  | None ->
    let ts =
      { ts_tenant = tenant;
        ts_masks = 0;
        ts_megaflows = 0;
        ts_upcalls = 0;
        ts_upcall_cycles = 0.;
        ts_ports = Hashtbl.create 4;
        ts_rules = Hashtbl.create 8 }
    in
    Hashtbl.add s.tenants tenant ts;
    ts

let rule_stat ts (o : origin) =
  match Hashtbl.find_opt ts.ts_rules o.o_rule with
  | Some rs -> rs
  | None ->
    let rs =
      { rs_rule = o.o_rule; rs_acl_rule = o.o_acl_rule; rs_masks = 0;
        rs_upcalls = 0 }
    in
    Hashtbl.add ts.ts_rules o.o_rule rs;
    rs

let note_install s (o : origin) ~mask ~new_mask ~upcall_cycles =
  let ts = tenant_stat s o.o_tenant in
  ts.ts_megaflows <- ts.ts_megaflows + 1;
  ts.ts_upcalls <- ts.ts_upcalls + 1;
  ts.ts_upcall_cycles <- ts.ts_upcall_cycles +. upcall_cycles;
  (match Hashtbl.find_opt ts.ts_ports o.o_port with
   | Some r -> incr r
   | None -> Hashtbl.add ts.ts_ports o.o_port (ref 1));
  let rs = rule_stat ts o in
  rs.rs_upcalls <- rs.rs_upcalls + 1;
  if new_mask then begin
    ts.ts_masks <- ts.ts_masks + 1;
    rs.rs_masks <- rs.rs_masks + 1;
    (port_stat s o.o_port).ps_masks_induced <-
      (port_stat s o.o_port).ps_masks_induced + 1;
    if not (Tables.Mask_tbl.mem s.mask_origins mask) then
      Tables.Mask_tbl.add s.mask_origins mask o
  end

let mask_origin s mask = Tables.Mask_tbl.find_opt s.mask_origins mask

(* --- reports --- *)

type rule_share = {
  r_rule : int;
  r_acl_rule : int;
  r_masks : int;
  r_upcalls : int;
}

type row = {
  t_tenant : int;
  t_masks : int;
  t_megaflows : int;
  t_upcalls : int;
  t_upcall_cycles : float;
  t_ports : int list;
  t_rules : rule_share list;
}

type port_row = {
  p_port : int;
  p_packets : int;
  p_emc_hits : int;
  p_mf_hits : int;
  p_mf_probes : int;
  p_upcalls : int;
  p_slow_probes : int;
  p_masks_induced : int;
  p_cycles : float;
  p_handler_cycles : float;
}

type summary = { rows : row list; ports : port_row list }

let merge_tenants stores =
  (* tenant -> merged mutable copy, then frozen into rows *)
  let acc : (int, tenant_stat) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun tenant ts ->
          let m =
            match Hashtbl.find_opt acc tenant with
            | Some m -> m
            | None ->
              let m =
                { ts_tenant = tenant;
                  ts_masks = 0;
                  ts_megaflows = 0;
                  ts_upcalls = 0;
                  ts_upcall_cycles = 0.;
                  ts_ports = Hashtbl.create 4;
                  ts_rules = Hashtbl.create 8 }
              in
              Hashtbl.add acc tenant m;
              m
          in
          m.ts_masks <- m.ts_masks + ts.ts_masks;
          m.ts_megaflows <- m.ts_megaflows + ts.ts_megaflows;
          m.ts_upcalls <- m.ts_upcalls + ts.ts_upcalls;
          m.ts_upcall_cycles <- m.ts_upcall_cycles +. ts.ts_upcall_cycles;
          Hashtbl.iter
            (fun port n ->
              match Hashtbl.find_opt m.ts_ports port with
              | Some r -> r := !r + !n
              | None -> Hashtbl.add m.ts_ports port (ref !n))
            ts.ts_ports;
          Hashtbl.iter
            (fun seq rs ->
              match Hashtbl.find_opt m.ts_rules seq with
              | Some mr ->
                mr.rs_masks <- mr.rs_masks + rs.rs_masks;
                mr.rs_upcalls <- mr.rs_upcalls + rs.rs_upcalls
              | None ->
                Hashtbl.add m.ts_rules seq
                  { rs_rule = rs.rs_rule;
                    rs_acl_rule = rs.rs_acl_rule;
                    rs_masks = rs.rs_masks;
                    rs_upcalls = rs.rs_upcalls })
            ts.ts_rules)
        s.tenants)
    stores;
  acc

let row_of_tenant ts =
  let ports =
    Hashtbl.fold (fun p n acc -> (p, !n) :: acc) ts.ts_ports []
    |> List.sort (fun (pa, na) (pb, nb) ->
           match Int.compare nb na with 0 -> Int.compare pa pb | c -> c)
    |> List.map fst
  in
  let rules =
    Hashtbl.fold
      (fun _ rs acc ->
        { r_rule = rs.rs_rule;
          r_acl_rule = rs.rs_acl_rule;
          r_masks = rs.rs_masks;
          r_upcalls = rs.rs_upcalls }
        :: acc)
      ts.ts_rules []
    |> List.sort (fun a b ->
           match Int.compare b.r_masks a.r_masks with
           | 0 -> (
             match Int.compare b.r_upcalls a.r_upcalls with
             | 0 -> Int.compare a.r_rule b.r_rule
             | c -> c)
           | c -> c)
  in
  { t_tenant = ts.ts_tenant;
    t_masks = ts.ts_masks;
    t_megaflows = ts.ts_megaflows;
    t_upcalls = ts.ts_upcalls;
    t_upcall_cycles = ts.ts_upcall_cycles;
    t_ports = ports;
    t_rules = rules }

let merge_ports stores =
  let acc : (int, port_row) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : store) ->
      Array.iter
        (function
          | None -> ()
          | Some ps ->
            let p =
              match Hashtbl.find_opt acc ps.ps_port with
              | Some p -> p
              | None ->
                { p_port = ps.ps_port;
                  p_packets = 0;
                  p_emc_hits = 0;
                  p_mf_hits = 0;
                  p_mf_probes = 0;
                  p_upcalls = 0;
                  p_slow_probes = 0;
                  p_masks_induced = 0;
                  p_cycles = 0.;
                  p_handler_cycles = 0. }
            in
            Hashtbl.replace acc ps.ps_port
              { p with
                p_packets = p.p_packets + ps.ps_packets;
                p_emc_hits = p.p_emc_hits + ps.ps_emc_hits;
                p_mf_hits = p.p_mf_hits + ps.ps_mf_hits;
                p_mf_probes = p.p_mf_probes + ps.ps_mf_probes;
                p_upcalls = p.p_upcalls + ps.ps_upcalls;
                p_slow_probes = p.p_slow_probes + ps.ps_slow_probes;
                p_masks_induced = p.p_masks_induced + ps.ps_masks_induced;
                p_cycles = p.p_cycles +. ps.ps_cycles;
                p_handler_cycles = p.p_handler_cycles +. ps.ps_handler_cycles })
        s.ports)
    stores;
  Hashtbl.fold (fun _ p acc -> p :: acc) acc []
  |> List.sort (fun a b -> Int.compare a.p_port b.p_port)

let report stores =
  let rows =
    Hashtbl.fold (fun _ ts acc -> row_of_tenant ts :: acc)
      (merge_tenants stores) []
    |> List.sort (fun a b ->
           match Int.compare b.t_masks a.t_masks with
           | 0 -> (
             match Float.compare b.t_upcall_cycles a.t_upcall_cycles with
             | 0 -> Int.compare a.t_tenant b.t_tenant
             | c -> c)
           | c -> c)
  in
  { rows; ports = merge_ports stores }

let top_suspect summary =
  match summary.rows with
  | r :: _ when r.t_masks > 0 -> Some r
  | _ -> None

(* --- rendering --- *)

let pp_id ppf v =
  if v < 0 then Format.pp_print_char ppf '?' else Format.pp_print_int ppf v

let pp_rule_share ppf r =
  Format.fprintf ppf "acl#%a(rule:%a masks:%d upcalls:%d)" pp_id r.r_acl_rule
    pp_id r.r_rule r.r_masks r.r_upcalls

let pp_row ppf r =
  Format.fprintf ppf "tenant %a: masks:%d megaflows:%d upcalls:%d \
                      upcall-cycles:%.0f via-ports:[%a] rules:[%a]"
    pp_id r.t_tenant r.t_masks r.t_megaflows r.t_upcalls r.t_upcall_cycles
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    r.t_ports
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       pp_rule_share)
    r.t_rules

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>";
  (match s.rows with
   | [] -> Format.fprintf ppf "no attributed upcalls@,"
   | rows ->
     List.iteri
       (fun i r -> Format.fprintf ppf "#%d %a@," (i + 1) pp_row r)
       rows);
  Format.fprintf ppf "@]"

let pp_port_row ppf p =
  Format.fprintf ppf
    "port %d: packets:%d emc-hits:%d mf-hits:%d mf-probes:%d upcalls:%d \
     slow-probes:%d masks-induced:%d cycles:%.0f handler-cycles:%.0f"
    p.p_port p.p_packets p.p_emc_hits p.p_mf_hits p.p_mf_probes p.p_upcalls
    p.p_slow_probes p.p_masks_induced p.p_cycles p.p_handler_cycles

let pp_ports ppf s =
  Format.fprintf ppf "@[<v>";
  (match s.ports with
   | [] -> Format.fprintf ppf "no per-port samples@,"
   | ports ->
     List.iter (fun p -> Format.fprintf ppf "%a@," pp_port_row p) ports);
  Format.fprintf ppf "@]"

(* Byte-stable JSON fragment, same conventions as {!Pi_telemetry.Export}
   (sorted-by-rank arrays, {!Pi_telemetry.Json} floats, no whitespace). *)
module Json = Pi_telemetry.Json

let summary_json s =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"tenants\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"tenant\":%d,\"masks\":%d,\"megaflows\":%d,\"upcalls\":%d,\
         \"upcall_cycles\":%s,\"ports\":[%s],\"rules\":["
        r.t_tenant r.t_masks r.t_megaflows r.t_upcalls
        (Json.float r.t_upcall_cycles)
        (String.concat "," (List.map string_of_int r.t_ports));
      List.iteri
        (fun j ru ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b
            "{\"rule\":%d,\"acl_rule\":%d,\"masks\":%d,\"upcalls\":%d}"
            ru.r_rule ru.r_acl_rule ru.r_masks ru.r_upcalls)
        r.t_rules;
      Buffer.add_string b "]}")
    s.rows;
  Buffer.add_string b "],\"ports\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"port\":%d,\"packets\":%d,\"emc_hits\":%d,\"mf_hits\":%d,\
         \"mf_probes\":%d,\"upcalls\":%d,\"slow_probes\":%d,\
         \"masks_induced\":%d,\"cycles\":%s,\"handler_cycles\":%s}"
        p.p_port p.p_packets p.p_emc_hits p.p_mf_hits p.p_mf_probes
        p.p_upcalls p.p_slow_probes p.p_masks_induced (Json.float p.p_cycles)
        (Json.float p.p_handler_cycles))
    s.ports;
  Buffer.add_string b "]}";
  Buffer.contents b
