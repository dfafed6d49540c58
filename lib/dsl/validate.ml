open Ast

type metric =
  | Peak_masks
  | Final_masks
  | Final_megaflows
  | Pre_gbps
  | Post_gbps
  | Upcalls
  | Upcall_drops
  | Packets

let metric_table =
  [ ("peak_masks", Peak_masks);
    ("final_masks", Final_masks);
    ("final_megaflows", Final_megaflows);
    ("pre_gbps", Pre_gbps);
    ("post_gbps", Post_gbps);
    ("upcalls", Upcalls);
    ("upcall_drops", Upcall_drops);
    ("packets", Packets) ]

let metric_name m = fst (List.find (fun (_, m') -> m = m') metric_table)
let metric_names = List.map fst metric_table
let metric_of_name n = List.assoc_opt n metric_table

type check = {
  c_metric : metric;
  c_cmp : Ast.cmp;
  c_value : float;
  c_at : Loc.t;
}

type run_cfg = {
  rc_name : string;
  rc_backend : Ast.backend;
  rc_shards : int;
  rc_batch : int;
  rc_upcall_queue : int option;
  rc_mask_limit : int option;
  rc_coarsen : int option;
  rc_emc : bool;
  rc_checks : check list;
}

type attack_cfg = {
  ac_variant : Policy_injection.Variant.t;
  ac_trusted_src : Pi_pkt.Ipv4_addr.t;
  ac_sport : int;
  ac_dport : int;
  ac_proto : Pi_cms.Acl.protocol;
  ac_start : float;
  ac_stop : float option;
  ac_refresh : float;
  ac_pkt_len : int;
  ac_exact_per_tick : int;
}

type t = {
  scenario : string;
  seed : int64;
  duration : float;
  tick : float;
  offered_gbps : float;
  victim_pkt_len : int;
  victim_flows : int;
  victim_churn : float;
  victim_samples_per_tick : int;
  victim_allowed_net : Pi_pkt.Ipv4_addr.Prefix.t;
  background_services : int;
  attack : attack_cfg option;
  runs : run_cfg list;
}

(* Port layout pinned by Scenario.run: port 1 is the uplink, the victim pod
   sits on port 2, the attacker pod on port 3, background services on
   4+i. The DSL lets programs name these, and validation holds the
   names to the layout. *)
let uplink_port = 1
let victim_port = 2
let attacker_port = 3

let dp = Pi_sim.Scenario.default_params
let da = Pi_sim.Scenario.default_attack

type st = { mutable diags : Diag.t list }

let err st at fmt =
  Printf.ksprintf (fun msg -> st.diags <- Diag.v at msg :: st.diags) fmt

(* --- range helpers ------------------------------------------------- *)

let ge1 st what (x : int loc) =
  if x.v < 1 then err st x.at "%s must be >= 1 (got %d)" what x.v

let pos_f st what (x : float loc) =
  if not (x.v > 0.) then err st x.at "%s must be > 0 (got %s)" what
      (Pretty.float_str x.v)

let port_ok st what (x : int loc) =
  if x.v < 0 || x.v > 65535 then
    err st x.at "%s %d out of range (0..65535)" what x.v

let pkt_len_ok st (x : int loc) =
  if x.v < 64 || x.v > 9000 then
    err st x.at "pkt_len %d out of range (64..9000 bytes)" x.v

let dfl d o = match o with Some x -> x.v | None -> d

(* --- topology ------------------------------------------------------ *)

type topo = {
  tenants : (string * int loc) list;  (* name -> pod port *)
  services : int option;
  declared : bool;
}

let check_topology st (blocks : block list) =
  let topos =
    List.filter_map (function Topology t -> Some t | _ -> None) blocks
  in
  (match topos with
   | _ :: second :: _ ->
     err st second.at "duplicate topology block"
   | _ -> ());
  let tenants = ref [] and services = ref None and server_seen = ref None in
  List.iter
    (fun (tl : topology loc) ->
      List.iter
        (function
          | Server s ->
            (match !server_seen with
             | None -> server_seen := Some s.s_name.v
             | Some first ->
               err st s.s_name.at
                 "server %s: the scenario engine models a single server \
                  (already have %s)"
                 s.s_name.v first);
            if s.s_uplink.v <> uplink_port then
              err st s.s_uplink.at
                "uplink must be port %d (engine pin), got %d" uplink_port
                s.s_uplink.v
          | Tenant t ->
            if List.mem_assoc t.t_name.v !tenants then
              err st t.t_name.at "duplicate tenant %s" t.t_name.v
            else begin
              if t.t_port.v <= uplink_port then
                err st t.t_port.at
                  "port %d is reserved for the uplink (engine pin); tenant \
                   pod ports start at %d"
                  uplink_port victim_port
              else if
                List.exists (fun (_, p) -> p.v = t.t_port.v) !tenants
              then
                err st t.t_port.at "port %d already bound to tenant %s"
                  t.t_port.v
                  (fst
                     (List.find (fun (_, p) -> p.v = t.t_port.v) !tenants));
              tenants := (t.t_name.v, t.t_port) :: !tenants
            end
          | Services n ->
            (match !services with
             | Some _ -> err st n.at "duplicate services declaration"
             | None ->
               if n.v < 0 then
                 err st n.at "services must be >= 0 (got %d)" n.v;
               services := Some n.v))
        tl.v)
    topos;
  { tenants = List.rev !tenants; services = !services;
    declared = topos <> [] }

(* Resolve a tenant reference and hold it to the pinned port of its
   role. [role] names the role in messages ("victim", "attacker"). *)
let check_tenant_ref st topo ~role ~want_port (name : string loc) =
  if topo.declared then
    match List.assoc_opt name.v topo.tenants with
    | None -> err st name.at "unknown tenant %s" name.v
    | Some port ->
      if port.v <> want_port then
        err st name.at
          "tenant %s is bound to port %d but the %s role requires port %d \
           (engine pin)"
          name.v port.v role want_port

(* --- policies ------------------------------------------------------ *)

let proto_to_acl = function
  | P_tcp -> Some Pi_cms.Acl.Tcp
  | P_udp -> Some Pi_cms.Acl.Udp
  | P_any | P_icmp -> None

(* The victim's own whitelist: exactly [allow src PREFIX] (plus an
   optional explicit [deny all]) — the shape Scenario installs. *)
let victim_net_of_policy st (p : policy) =
  let allows =
    List.filter_map
      (fun r -> match r.v with Allow cs -> Some (cs, r.at) | Deny_all -> None)
      p.p_rules
  in
  match allows with
  | [ ([ Src pfx ], _) ] -> Some pfx.v
  | [ (_, at) ] | (_, at) :: _ ->
    err st at
      "the victim policy must be a single 'allow src PREFIX' rule \
       (engine limitation)";
    None
  | [] ->
    err st p.p_name.at "the victim policy needs an 'allow src PREFIX' rule";
    None

let exact_port st what (p : ports loc) =
  match p.v with
  | Port n ->
    port_ok st what { v = n; at = p.at };
    Some n
  | Any_port | Range _ ->
    err st p.at
      "the injected whitelist must pin an exact %s (ranges and 'any' do \
       not force per-flow megaflows)"
      what;
    None

(* Derive the attack variant from the clause shape of the injected
   whitelist, and check the declared CMS dialect can express it. *)
let attack_spec_of_policy st (p : policy) =
  let allows =
    List.filter_map
      (fun r -> match r.v with Allow cs -> Some (cs, r.at) | Deny_all -> None)
      p.p_rules
  in
  match allows with
  | [] ->
    err st p.p_name.at
      "the injected policy %s needs exactly one allow rule (got none)"
      p.p_name.v;
    None
  | _ :: (_, at) :: _ ->
    err st at
      "the injected policy %s needs exactly one allow rule (got %d)"
      p.p_name.v (List.length allows);
    None
  | [ (clauses, rule_at) ] ->
    let src = ref None and proto = ref None in
    let sport = ref None and dport = ref None in
    let dup what = err st rule_at "duplicate %s clause in allow rule" what in
    List.iter
      (function
        | Src x -> if !src = None then src := Some x else dup "src"
        | Proto x -> if !proto = None then proto := Some x else dup "proto"
        | Sport x -> if !sport = None then sport := Some x else dup "sport"
        | Dport x -> if !dport = None then dport := Some x else dup "dport")
      clauses;
    let trusted_src =
      match !src with
      | None ->
        err st rule_at "the injected whitelist needs a src clause";
        None
      | Some pfx ->
        if pfx.v.Pi_pkt.Ipv4_addr.Prefix.len <> 32 then begin
          err st pfx.at
            "the whitelisted source must be a /32 host address (got %s)"
            (Pi_pkt.Ipv4_addr.Prefix.to_string pfx.v);
          None
        end
        else Some pfx.v.Pi_pkt.Ipv4_addr.Prefix.base
    in
    let variant =
      match (!sport, !dport) with
      | None, None -> Some Policy_injection.Variant.Src_only
      | None, Some _ -> Some Policy_injection.Variant.Src_dport
      | Some _, Some _ -> Some Policy_injection.Variant.Src_sport_dport
      | Some s, None ->
        err st s.at
          "sport without dport matches no attack variant (supported \
           shapes: src / src+dport / src+sport+dport)";
        None
    in
    let acl_proto =
      match !proto with
      | None ->
        if !dport <> None then Some da.Pi_sim.Scenario.proto else None
      | Some pr ->
        if variant = Some Policy_injection.Variant.Src_only then begin
          err st pr.at
            "a src-only whitelist cannot pin proto (add dport, or drop \
             the proto clause)";
          None
        end
        else
          (match proto_to_acl pr.v with
           | Some _ as a -> a
           | None ->
             err st pr.at "the injected whitelist's proto must be tcp or udp";
             None)
    in
    (match (variant, p.p_dialect) with
     | Some Policy_injection.Variant.Src_sport_dport, Some d
       when d.v <> Calico ->
       err st d.at
         "dialect %s cannot express source-port matches — the paper's \
          point; use calico"
         (dialect_name d.v)
     | _ -> ());
    let sport_v =
      match !sport with
      | None -> Some da.Pi_sim.Scenario.allow_sport
      | Some pl -> exact_port st "sport" pl
    in
    let dport_v =
      match !dport with
      | None -> Some da.Pi_sim.Scenario.allow_dport
      | Some pl -> exact_port st "dport" pl
    in
    (match (variant, trusted_src, sport_v, dport_v) with
     | Some variant, Some src, Some sp, Some dpv ->
       Some
         ( variant,
           src,
           sp,
           dpv,
           match acl_proto with
           | Some pr -> pr
           | None -> da.Pi_sim.Scenario.proto )
     | _ -> None)

(* --- assertions ---------------------------------------------------- *)

let check_assert st ~has_attack (a : assertion) =
  match metric_of_name a.as_metric.v with
  | None ->
    err st a.as_metric.at "unknown metric %s (valid: %s)" a.as_metric.v
      (String.concat ", " metric_names);
    None
  | Some m ->
    if m = Post_gbps && not has_attack then
      err st a.as_metric.at
        "post_gbps is undefined without an attack (no attack block in \
         traffic)";
    Some { c_metric = m; c_cmp = a.as_cmp; c_value = a.as_value.v;
           c_at = a.as_metric.at }

(* --- runs ----------------------------------------------------------- *)

let check_run st ~has_attack seen (r : run) =
  if List.mem r.r_name.v !seen then
    err st r.r_name.at "duplicate run %s" r.r_name.v;
  seen := r.r_name.v :: !seen;
  Option.iter (ge1 st "shards") r.r_shards;
  Option.iter (ge1 st "batch") r.r_batch;
  Option.iter (ge1 st "upcall_queue") r.r_upcall_queue;
  Option.iter (ge1 st "mask_limit") r.r_mask_limit;
  (match r.r_coarsen with
   | Some g when g.v < 1 || g.v > 32 ->
     err st g.at "coarsen granularity %d out of range (1..32 bits)" g.v
   | _ -> ());
  let backend = dfl Pmd r.r_backend in
  (match (backend, r.r_shards) with
   | Cacheless, Some s when s.v > 1 ->
     err st s.at "backend cacheless is single-threaded; shards must be 1"
   | _ -> ());
  (match (backend, r.r_emc) with
   | Cacheless, Some e ->
     err st e.at "backend cacheless has no EMC to switch %s"
       (if e.v then "on" else "off")
   | _ -> ());
  let checks =
    match r.r_assert with
    | None -> []
    | Some asserts ->
      List.filter_map (check_assert st ~has_attack) asserts.v
  in
  { rc_name = r.r_name.v;
    rc_backend = backend;
    rc_shards = dfl dp.Pi_sim.Scenario.n_shards r.r_shards;
    rc_batch = dfl dp.Pi_sim.Scenario.batch_size r.r_batch;
    rc_upcall_queue = Option.map (fun x -> x.v) r.r_upcall_queue;
    rc_mask_limit = Option.map (fun x -> x.v) r.r_mask_limit;
    rc_coarsen = Option.map (fun x -> x.v) r.r_coarsen;
    rc_emc = dfl true r.r_emc;
    rc_checks = checks }

(* --- the pass ------------------------------------------------------- *)

let check (prog : program) =
  let st = { diags = [] } in
  let topo = check_topology st prog.blocks in
  let policies =
    List.filter_map (function Policy p -> Some p | _ -> None) prog.blocks
  in
  let seen = ref [] in
  List.iter
    (fun (p : policy loc) ->
      if List.mem p.v.p_name.v !seen then
        err st p.v.p_name.at "duplicate policy %s" p.v.p_name.v;
      seen := p.v.p_name.v :: !seen)
    policies;
  let traffics =
    List.filter_map (function Traffic t -> Some t | _ -> None) prog.blocks
  in
  (match traffics with
   | _ :: second :: _ -> err st second.at "duplicate traffic block"
   | _ -> ());
  let traffic =
    match traffics with t :: _ -> t.v | [] -> Ast.empty_traffic
  in
  Option.iter (fun (s : int loc) ->
      if s.v < 0 then err st s.at "seed must be >= 0 (got %d)" s.v)
    traffic.tr_seed;
  Option.iter (pos_f st "duration") traffic.tr_duration;
  Option.iter (pos_f st "tick") traffic.tr_tick;
  let victim = Option.map (fun v -> v.v) traffic.tr_victim in
  let vb f = Option.bind victim f in
  Option.iter (pos_f st "offered_gbps") (vb (fun v -> v.v_offered_gbps));
  Option.iter (pkt_len_ok st) (vb (fun v -> v.v_pkt_len));
  Option.iter (ge1 st "flows") (vb (fun v -> v.v_flows));
  (match vb (fun v -> v.v_churn) with
   | Some c when c.v < 0. || c.v > 1. ->
     err st c.at "churn %s out of range (0..1, fraction of flows per second)"
       (Pretty.float_str c.v)
   | _ -> ());
  Option.iter (ge1 st "samples_per_tick")
    (vb (fun v -> v.v_samples_per_tick));
  let victim_tenant = vb (fun v -> v.v_tenant) in
  Option.iter
    (check_tenant_ref st topo ~role:"victim" ~want_port:victim_port)
    victim_tenant;
  (* Resolve the victim's own policy: the one attached to the victim
     tenant (by name when referenced, else by the pinned port). *)
  let victim_tenant_name =
    match victim_tenant with
    | Some n -> Some n.v
    | None ->
      List.find_map
        (fun (n, p) -> if p.v = victim_port then Some n else None)
        topo.tenants
  in
  let attack_blk = Option.map (fun a -> a.v) traffic.tr_attack in
  let attack_policy_name = Option.bind attack_blk (fun a -> a.a_policy) in
  (match attack_blk with
   | Some _ when attack_policy_name = None ->
     err st (Option.get traffic.tr_attack).at
       "the attack block needs a policy NAME (the whitelist to inject)"
   | _ -> ());
  let find_policy name =
    List.find_opt (fun (p : policy loc) -> p.v.p_name.v = name) policies
  in
  (* Every policy block must play a role: the victim's own whitelist
     (tenant on port 2) or the injected one (named by the attack). *)
  let victim_net = ref dp.Pi_sim.Scenario.victim_allowed_net in
  let attack_spec = ref None in
  List.iter
    (fun (pl : policy loc) ->
      let p = pl.v in
      Option.iter
        (fun (tn : string loc) ->
          if topo.declared && not (List.mem_assoc tn.v topo.tenants) then
            err st tn.at "unknown tenant %s in policy %s" tn.v p.p_name.v)
        p.p_tenant;
      let is_attack =
        match attack_policy_name with
        | Some n -> n.v = p.p_name.v
        | None -> false
      in
      let is_victim =
        (not is_attack)
        &&
        match (p.p_tenant, victim_tenant_name) with
        | Some tn, Some vt -> tn.v = vt
        | _ -> false
      in
      if is_attack then begin
        Option.iter
          (check_tenant_ref st topo ~role:"attacker"
             ~want_port:attacker_port)
          p.p_tenant;
        attack_spec := attack_spec_of_policy st p
      end
      else if is_victim then
        Option.iter (fun net -> victim_net := net)
          (victim_net_of_policy st p)
      else
        err st p.p_name.at
          "policy %s is unused: neither the victim tenant's whitelist nor \
           the policy named by the attack block"
          p.p_name.v)
    policies;
  (* --- attack ------------------------------------------------------ *)
  let attack =
    match attack_blk with
    | None -> None
    | Some a ->
      (match attack_policy_name with
       | None -> None
       | Some n ->
         (match find_policy n.v with
          | None -> err st n.at "unknown policy %s" n.v
          | Some _ -> ());
         Option.iter (pos_f st "refresh") a.a_refresh;
         Option.iter (pkt_len_ok st) a.a_pkt_len;
         Option.iter (ge1 st "exact_per_tick") a.a_exact_per_tick;
         (match a.a_start with
          | Some s when s.v < 0. ->
            err st s.at "start must be >= 0 (got %s)" (Pretty.float_str s.v)
          | _ -> ());
         let start = dfl da.Pi_sim.Scenario.start a.a_start in
         (match a.a_stop with
          | Some s when s.v <= start ->
            err st s.at "stop (%s) must be after start (%s)"
              (Pretty.float_str s.v) (Pretty.float_str start)
          | _ -> ());
         (match !attack_spec with
          | None -> None  (* the policy was missing or malformed *)
          | Some (variant, src, sport, dport, proto) ->
            Some
              { ac_variant = variant;
                ac_trusted_src = src;
                ac_sport = sport;
                ac_dport = dport;
                ac_proto = proto;
                ac_start = start;
                ac_stop = Option.map (fun s -> s.v) a.a_stop;
                ac_refresh = dfl da.Pi_sim.Scenario.refresh_period a.a_refresh;
                ac_pkt_len = dfl da.Pi_sim.Scenario.covert_pkt_len a.a_pkt_len;
                ac_exact_per_tick =
                  dfl da.Pi_sim.Scenario.attacker_exact_per_tick
                    a.a_exact_per_tick }))
  in
  (* --- runs --------------------------------------------------------- *)
  let run_blocks =
    List.filter_map (function Run r -> Some r | _ -> None) prog.blocks
  in
  if run_blocks = [] then
    err st prog.name.at "at least one run block is required";
  let seen_runs = ref [] in
  let has_attack = attack_blk <> None in
  let runs =
    List.map (fun (r : run loc) -> check_run st ~has_attack seen_runs r.v)
      run_blocks
  in
  match st.diags with
  | [] ->
    Ok
      { scenario = prog.name.v;
        seed =
          (match traffic.tr_seed with
           | Some s -> Int64.of_int s.v
           | None -> dp.Pi_sim.Scenario.seed);
        duration = dfl dp.Pi_sim.Scenario.duration traffic.tr_duration;
        tick = dfl dp.Pi_sim.Scenario.tick traffic.tr_tick;
        offered_gbps =
          dfl dp.Pi_sim.Scenario.victim_offered_gbps
            (vb (fun v -> v.v_offered_gbps));
        victim_pkt_len =
          dfl dp.Pi_sim.Scenario.victim_pkt_len (vb (fun v -> v.v_pkt_len));
        victim_flows =
          dfl dp.Pi_sim.Scenario.victim_flows (vb (fun v -> v.v_flows));
        victim_churn =
          dfl dp.Pi_sim.Scenario.victim_churn (vb (fun v -> v.v_churn));
        victim_samples_per_tick =
          dfl dp.Pi_sim.Scenario.victim_samples_per_tick
            (vb (fun v -> v.v_samples_per_tick));
        victim_allowed_net = !victim_net;
        background_services =
          (match topo.services with
           | Some n -> n
           | None -> dp.Pi_sim.Scenario.background_services);
        attack;
        runs }
  | diags -> Error (List.rev diags)
