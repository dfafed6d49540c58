open Ast

exception Fail of Diag.t

type st = { toks : Lexer.t array; mutable pos : int }

let peek st = st.toks.(st.pos)

let next st =
  let t = peek st in
  if t.Lexer.tok <> Lexer.Eof then st.pos <- st.pos + 1;
  t

let fail at fmt = Format.kasprintf (fun msg -> raise (Fail (Diag.v at msg))) fmt

let expect_ident st what =
  match next st with
  | { Lexer.tok = Lexer.Ident s; at } -> Ast.at at s
  | { Lexer.tok; at } -> fail at "expected %s, got %a" what Lexer.pp_token tok

let expect_lbrace st =
  match next st with
  | { Lexer.tok = Lexer.Lbrace; _ } -> ()
  | { Lexer.tok; at } -> fail at "expected '{', got %a" Lexer.pp_token tok

let expect_int st what =
  match next st with
  | { Lexer.tok = Lexer.Int n; at } -> Ast.at at n
  | { Lexer.tok; at } -> fail at "expected %s, got %a" what Lexer.pp_token tok

(* Numeric fields that are semantically real-valued accept integer
   literals too ([duration 40] means [40.0]). *)
let expect_float st what =
  match next st with
  | { Lexer.tok = Lexer.Int n; at } -> Ast.at at (float_of_int n)
  | { Lexer.tok = Lexer.Float f; at } -> Ast.at at f
  | { Lexer.tok; at } -> fail at "expected %s, got %a" what Lexer.pp_token tok

(* [set] enforces each block field appears at most once; [at] is the
   field keyword's location, used for the duplicate diagnostic. *)
let set field_name at prev v =
  match prev with
  | None -> Some v
  | Some _ -> fail at "duplicate %s" field_name

(* --- topology --- *)

let parse_server st =
  let s_name = expect_ident st "a server name" in
  expect_lbrace st;
  (match next st with
   | { Lexer.tok = Lexer.Ident "uplink"; _ } -> ()
   | { Lexer.tok; at } ->
     fail at "expected 'uplink', got %a" Lexer.pp_token tok);
  let s_uplink = expect_int st "an uplink port number" in
  (match next st with
   | { Lexer.tok = Lexer.Rbrace; _ } -> ()
   | { Lexer.tok; at } -> fail at "expected '}', got %a" Lexer.pp_token tok);
  Server { s_name; s_uplink }

let parse_tenant st =
  let t_name = expect_ident st "a tenant name" in
  expect_lbrace st;
  (match next st with
   | { Lexer.tok = Lexer.Ident "port"; _ } -> ()
   | { Lexer.tok; at } -> fail at "expected 'port', got %a" Lexer.pp_token tok);
  let t_port = expect_int st "a port number" in
  (match next st with
   | { Lexer.tok = Lexer.Rbrace; _ } -> ()
   | { Lexer.tok; at } -> fail at "expected '}', got %a" Lexer.pp_token tok);
  Tenant { t_name; t_port }

let parse_topology st at0 =
  expect_lbrace st;
  let items = ref [] in
  let rec loop () =
    match next st with
    | { Lexer.tok = Lexer.Rbrace; _ } -> ()
    | { Lexer.tok = Lexer.Ident "server"; _ } ->
      items := parse_server st :: !items;
      loop ()
    | { Lexer.tok = Lexer.Ident "tenant"; _ } ->
      items := parse_tenant st :: !items;
      loop ()
    | { Lexer.tok = Lexer.Ident "services"; _ } ->
      items := Services (expect_int st "a pod count") :: !items;
      loop ()
    | { Lexer.tok; at } ->
      fail at "expected server, tenant, services or '}', got %a"
        Lexer.pp_token tok
  in
  loop ();
  Topology (Ast.at at0 (List.rev !items))

(* --- policies --- *)

let parse_ports st =
  match next st with
  | { Lexer.tok = Lexer.Ident "any"; at } -> Ast.at at Any_port
  | { Lexer.tok = Lexer.Int a; at } -> begin
    match peek st with
    | { Lexer.tok = Lexer.Dotdot; _ } ->
      ignore (next st);
      let b = expect_int st "the upper port of the range" in
      Ast.at at (Range (a, b.v))
    | _ -> Ast.at at (Port a)
  end
  | { Lexer.tok; at } ->
    fail at "expected a port, a range lo..hi or 'any', got %a"
      Lexer.pp_token tok

let clause_keyword = function
  | "src" | "proto" | "sport" | "dport" -> true
  | _ -> false

let parse_clauses st =
  let clauses = ref [] in
  let rec loop () =
    match peek st with
    | { Lexer.tok = Lexer.Ident kw; _ } when clause_keyword kw ->
      ignore (next st);
      let c =
        match kw with
        | "src" -> begin
          match next st with
          | { Lexer.tok = Lexer.Addr a; at } ->
            Src (Ast.at at (Pi_pkt.Ipv4_addr.Prefix.make a 32))
          | { Lexer.tok = Lexer.Cidr p; at } -> Src (Ast.at at p)
          | { Lexer.tok; at } ->
            fail at "expected an IP address or CIDR prefix, got %a"
              Lexer.pp_token tok
        end
        | "proto" -> begin
          match next st with
          | { Lexer.tok = Lexer.Ident s; at } -> begin
            match proto_of_name s with
            | Some p -> Proto (Ast.at at p)
            | None ->
              fail at "unknown protocol %s (expected any, tcp, udp or icmp)" s
          end
          | { Lexer.tok; at } ->
            fail at "expected a protocol, got %a" Lexer.pp_token tok
        end
        | "sport" -> Sport (parse_ports st)
        | "dport" -> Dport (parse_ports st)
        | _ -> assert false
      in
      clauses := c :: !clauses;
      loop ()
    | _ -> ()
  in
  loop ();
  List.rev !clauses

let parse_policy st =
  let p_name = expect_ident st "a policy name" in
  expect_lbrace st;
  let p = ref (empty_policy p_name) in
  let rules = ref [] in
  let rec loop () =
    match next st with
    | { Lexer.tok = Lexer.Rbrace; _ } -> ()
    | { Lexer.tok = Lexer.Ident "dialect"; at } ->
      let d = expect_ident st "a dialect" in
      (match dialect_of_name d.v with
       | Some dl ->
         p := { !p with p_dialect = set "dialect" at !p.p_dialect (Ast.at d.at dl) }
       | None ->
         fail d.at
           "unknown dialect %s (expected k8s, security_group or calico)" d.v);
      loop ()
    | { Lexer.tok = Lexer.Ident "tenant"; at } ->
      let t = expect_ident st "a tenant name" in
      p := { !p with p_tenant = set "tenant" at !p.p_tenant t };
      loop ()
    | { Lexer.tok = Lexer.Ident "allow"; at } ->
      let clauses = parse_clauses st in
      if clauses = [] then
        fail at "allow needs at least one of src, proto, sport, dport";
      rules := Ast.at at (Allow clauses) :: !rules;
      loop ()
    | { Lexer.tok = Lexer.Ident "deny"; at } ->
      (match next st with
       | { Lexer.tok = Lexer.Ident "all"; _ } -> ()
       | { Lexer.tok; at } ->
         fail at
           "expected 'all' (whitelist policies support only 'deny all'), \
            got %a"
           Lexer.pp_token tok);
      rules := Ast.at at Deny_all :: !rules;
      loop ()
    | { Lexer.tok; at } ->
      fail at "expected dialect, tenant, allow, deny or '}', got %a"
        Lexer.pp_token tok
  in
  loop ();
  Policy (Ast.at p_name.at { !p with p_rules = List.rev !rules })

(* --- traffic --- *)

let parse_victim st at0 =
  expect_lbrace st;
  let v = ref empty_victim in
  let rec loop () =
    match next st with
    | { Lexer.tok = Lexer.Rbrace; _ } -> ()
    | { Lexer.tok = Lexer.Ident "tenant"; at } ->
      let t = expect_ident st "a tenant name" in
      v := { !v with v_tenant = set "tenant" at !v.v_tenant t };
      loop ()
    | { Lexer.tok = Lexer.Ident "offered_gbps"; at } ->
      let f = expect_float st "an offered load in Gb/s" in
      v := { !v with v_offered_gbps = set "offered_gbps" at !v.v_offered_gbps f };
      loop ()
    | { Lexer.tok = Lexer.Ident "pkt_len"; at } ->
      let n = expect_int st "a packet length" in
      v := { !v with v_pkt_len = set "pkt_len" at !v.v_pkt_len n };
      loop ()
    | { Lexer.tok = Lexer.Ident "flows"; at } ->
      let n = expect_int st "a flow count" in
      v := { !v with v_flows = set "flows" at !v.v_flows n };
      loop ()
    | { Lexer.tok = Lexer.Ident "churn"; at } ->
      let f = expect_float st "a churn fraction" in
      v := { !v with v_churn = set "churn" at !v.v_churn f };
      loop ()
    | { Lexer.tok = Lexer.Ident "samples_per_tick"; at } ->
      let n = expect_int st "a sample count" in
      v :=
        { !v with
          v_samples_per_tick = set "samples_per_tick" at !v.v_samples_per_tick n };
      loop ()
    | { Lexer.tok; at } ->
      fail at
        "expected tenant, offered_gbps, pkt_len, flows, churn, \
         samples_per_tick or '}', got %a"
        Lexer.pp_token tok
  in
  loop ();
  Ast.at at0 !v

let parse_attack st at0 =
  expect_lbrace st;
  let a = ref empty_attack in
  let rec loop () =
    match next st with
    | { Lexer.tok = Lexer.Rbrace; _ } -> ()
    | { Lexer.tok = Lexer.Ident "policy"; at } ->
      let p = expect_ident st "a policy name" in
      a := { !a with a_policy = set "policy" at !a.a_policy p };
      loop ()
    | { Lexer.tok = Lexer.Ident "start"; at } ->
      let f = expect_float st "a start time" in
      a := { !a with a_start = set "start" at !a.a_start f };
      loop ()
    | { Lexer.tok = Lexer.Ident "stop"; at } ->
      let f = expect_float st "a stop time" in
      a := { !a with a_stop = set "stop" at !a.a_stop f };
      loop ()
    | { Lexer.tok = Lexer.Ident "refresh"; at } ->
      let f = expect_float st "a refresh period" in
      a := { !a with a_refresh = set "refresh" at !a.a_refresh f };
      loop ()
    | { Lexer.tok = Lexer.Ident "pkt_len"; at } ->
      let n = expect_int st "a packet length" in
      a := { !a with a_pkt_len = set "pkt_len" at !a.a_pkt_len n };
      loop ()
    | { Lexer.tok = Lexer.Ident "exact_per_tick"; at } ->
      let n = expect_int st "a packet count" in
      a :=
        { !a with
          a_exact_per_tick = set "exact_per_tick" at !a.a_exact_per_tick n };
      loop ()
    | { Lexer.tok; at } ->
      fail at
        "expected policy, start, stop, refresh, pkt_len, exact_per_tick \
         or '}', got %a"
        Lexer.pp_token tok
  in
  loop ();
  Ast.at at0 !a

let parse_traffic st at0 =
  expect_lbrace st;
  let t = ref empty_traffic in
  let rec loop () =
    match next st with
    | { Lexer.tok = Lexer.Rbrace; _ } -> ()
    | { Lexer.tok = Lexer.Ident "seed"; at } ->
      let n = expect_int st "a PRNG seed" in
      t := { !t with tr_seed = set "seed" at !t.tr_seed n };
      loop ()
    | { Lexer.tok = Lexer.Ident "duration"; at } ->
      let f = expect_float st "a duration in seconds" in
      t := { !t with tr_duration = set "duration" at !t.tr_duration f };
      loop ()
    | { Lexer.tok = Lexer.Ident "tick"; at } ->
      let f = expect_float st "a tick length in seconds" in
      t := { !t with tr_tick = set "tick" at !t.tr_tick f };
      loop ()
    | { Lexer.tok = Lexer.Ident "victim"; at } ->
      let v = parse_victim st at in
      t := { !t with tr_victim = set "victim block" at !t.tr_victim v };
      loop ()
    | { Lexer.tok = Lexer.Ident "attack"; at } ->
      let a = parse_attack st at in
      t := { !t with tr_attack = set "attack block" at !t.tr_attack a };
      loop ()
    | { Lexer.tok; at } ->
      fail at "expected seed, duration, tick, victim, attack or '}', got %a"
        Lexer.pp_token tok
  in
  loop ();
  Traffic (Ast.at at0 !t)

(* --- runs --- *)

let parse_assertions st at0 =
  expect_lbrace st;
  let asserts = ref [] in
  let rec loop () =
    match next st with
    | { Lexer.tok = Lexer.Rbrace; _ } -> ()
    | { Lexer.tok = Lexer.Ident m; at } ->
      let as_cmp =
        match next st with
        | { Lexer.tok = Lexer.Cmp_le; _ } -> Le
        | { Lexer.tok = Lexer.Cmp_ge; _ } -> Ge
        | { Lexer.tok = Lexer.Cmp_lt; _ } -> Lt
        | { Lexer.tok = Lexer.Cmp_gt; _ } -> Gt
        | { Lexer.tok = Lexer.Cmp_eq; _ } -> Eq
        | { Lexer.tok; at } ->
          fail at "expected <=, >=, <, > or ==, got %a" Lexer.pp_token tok
      in
      let as_value = expect_float st "a bound" in
      asserts := { as_metric = Ast.at at m; as_cmp; as_value } :: !asserts;
      loop ()
    | { Lexer.tok; at } ->
      fail at "expected a metric name or '}', got %a" Lexer.pp_token tok
  in
  loop ();
  Ast.at at0 (List.rev !asserts)

let parse_run st =
  let r_name = expect_ident st "a run name" in
  expect_lbrace st;
  let r = ref (empty_run r_name) in
  let rec loop () =
    match next st with
    | { Lexer.tok = Lexer.Rbrace; _ } -> ()
    | { Lexer.tok = Lexer.Ident "backend"; at } ->
      let b = expect_ident st "a backend" in
      (match backend_of_name b.v with
       | Some bk ->
         r := { !r with r_backend = set "backend" at !r.r_backend (Ast.at b.at bk) }
       | None when b.v = "datapath" ->
         fail b.at
           "backend datapath was removed; use backend pmd, which runs one \
            shard by default"
       | None ->
         fail b.at "unknown backend %s (expected pmd or cacheless)" b.v);
      loop ()
    | { Lexer.tok = Lexer.Ident "shards"; at } ->
      let n = expect_int st "a shard count" in
      r := { !r with r_shards = set "shards" at !r.r_shards n };
      loop ()
    | { Lexer.tok = Lexer.Ident "batch"; at } ->
      let n = expect_int st "an rx burst size" in
      r := { !r with r_batch = set "batch" at !r.r_batch n };
      loop ()
    | { Lexer.tok = Lexer.Ident "upcall_queue"; at } ->
      let n = expect_int st "a queue depth" in
      r := { !r with r_upcall_queue = set "upcall_queue" at !r.r_upcall_queue n };
      loop ()
    | { Lexer.tok = Lexer.Ident "mask_limit"; at } ->
      let n = expect_int st "a mask cap" in
      r := { !r with r_mask_limit = set "mask_limit" at !r.r_mask_limit n };
      loop ()
    | { Lexer.tok = Lexer.Ident "coarsen"; at } ->
      let n = expect_int st "a granularity in bits" in
      r := { !r with r_coarsen = set "coarsen" at !r.r_coarsen n };
      loop ()
    | { Lexer.tok = Lexer.Ident "emc"; at } ->
      let v = expect_ident st "'on' or 'off'" in
      let b =
        match v.v with
        | "on" -> true
        | "off" -> false
        | s -> fail v.at "expected 'on' or 'off', got '%s'" s
      in
      r := { !r with r_emc = set "emc" at !r.r_emc (Ast.at v.at b) };
      loop ()
    | { Lexer.tok = Lexer.Ident "assert"; at } ->
      let asserts = parse_assertions st at in
      r := { !r with r_assert = set "assert block" at !r.r_assert asserts };
      loop ()
    | { Lexer.tok; at } ->
      fail at
        "expected backend, shards, batch, upcall_queue, mask_limit, \
         coarsen, emc, assert or '}', got %a"
        Lexer.pp_token tok
  in
  loop ();
  Run (Ast.at r_name.at !r)

(* --- programs --- *)

let parse_program st =
  (match next st with
   | { Lexer.tok = Lexer.Ident "scenario"; _ } -> ()
   | { Lexer.tok; at } ->
     fail at "a .pis file starts with 'scenario NAME', got %a"
       Lexer.pp_token tok);
  let name = expect_ident st "a scenario name" in
  let blocks = ref [] in
  let rec loop () =
    match next st with
    | { Lexer.tok = Lexer.Eof; _ } -> ()
    | { Lexer.tok = Lexer.Ident "topology"; at } ->
      blocks := parse_topology st at :: !blocks;
      loop ()
    | { Lexer.tok = Lexer.Ident "policy"; _ } ->
      blocks := parse_policy st :: !blocks;
      loop ()
    | { Lexer.tok = Lexer.Ident "traffic"; at } ->
      blocks := parse_traffic st at :: !blocks;
      loop ()
    | { Lexer.tok = Lexer.Ident "run"; _ } ->
      blocks := parse_run st :: !blocks;
      loop ()
    | { Lexer.tok; at } ->
      fail at "expected a topology, policy, traffic or run block, got %a"
        Lexer.pp_token tok
  in
  loop ();
  { name; blocks = List.rev !blocks }

let parse ~file src =
  match Lexer.tokenize ~file src with
  | Error d -> Error d
  | Ok toks -> (
    let st = { toks; pos = 0 } in
    try Ok (parse_program st) with Fail d -> Error d)

let parse_file file =
  match
    In_channel.with_open_bin file In_channel.input_all
  with
  | src -> parse ~file src
  | exception Sys_error msg ->
    Error (Diag.v (Loc.v ~file ~line:0 ~col:0) msg)
