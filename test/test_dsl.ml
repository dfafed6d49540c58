(* The .pis language: parser/pretty-printer round trip, exact
   diagnostics, and the DSL-vs-OCaml equivalence contract — a .pis file
   lowers onto the very Scenario.params a direct library call builds,
   so the interpreter's golden JSON agrees with the engine number for
   number. *)

open Pi_dsl
module A = Ast

let d = A.dummy

(* --- generators ----------------------------------------------------- *)

let gen_ident =
  let open QCheck2.Gen in
  let* stem = oneofl [ "host"; "victim"; "attacker"; "pol"; "run_"; "x" ] in
  let* n = int_range 0 99 in
  return (Printf.sprintf "%s%d" stem n)

(* Nonnegative only: the lexer has no '-' (nothing in the grammar is
   negative), and every finite float round-trips via %.12g/%.17g. *)
let gen_num =
  let open QCheck2.Gen in
  oneof
    [ map float_of_int (int_range 0 100000);
      float_range 0. 1000.;
      float_range 0. 1e12 ]

let gen_int = QCheck2.Gen.int_range 0 100000

let gen_prefix =
  let open QCheck2.Gen in
  let* a = int_range 0 255 and* b = int_range 0 255 in
  let* c = int_range 0 255 and* e = int_range 0 255 in
  let* len = int_range 0 32 in
  (* make masks host bits, so printing and re-parsing is clean *)
  return (Pi_pkt.Ipv4_addr.Prefix.make (Pi_pkt.Ipv4_addr.of_octets a b c e) len)

let gen_ports =
  let open QCheck2.Gen in
  let* port = int_range 0 65535 and* hi = int_range 0 65535 in
  oneofl [ A.Any_port; A.Port port; A.Range (min port hi, max port hi) ]

let gen_clause =
  let open QCheck2.Gen in
  oneof
    [ map (fun p -> A.Src (d p)) gen_prefix;
      map (fun p -> A.Proto (d p))
        (oneofl [ A.P_any; A.P_tcp; A.P_udp; A.P_icmp ]);
      map (fun p -> A.Sport (d p)) gen_ports;
      map (fun p -> A.Dport (d p)) gen_ports ]

let gen_rule =
  let open QCheck2.Gen in
  oneof
    [ map (fun cs -> A.Allow cs) (list_size (int_range 1 4) gen_clause);
      return A.Deny_all ]

let gen_opt g = QCheck2.Gen.option g
let gen_oloc g = QCheck2.Gen.option (QCheck2.Gen.map d g)

let gen_topology =
  let open QCheck2.Gen in
  let item =
    oneof
      [ (let* s_name = gen_ident and* up = gen_int in
         return (A.Server { A.s_name = d s_name; s_uplink = d up }));
        (let* t_name = gen_ident and* port = gen_int in
         return (A.Tenant { A.t_name = d t_name; t_port = d port }));
        map (fun n -> A.Services (d n)) gen_int ]
  in
  list_size (int_range 0 4) item

let gen_policy =
  let open QCheck2.Gen in
  let* p_name = gen_ident in
  let* p_dialect =
    gen_oloc (oneofl [ A.K8s; A.Security_group; A.Calico ])
  in
  let* p_tenant = gen_oloc gen_ident in
  let* p_rules = list_size (int_range 0 3) (map d gen_rule) in
  return { A.p_name = d p_name; p_dialect; p_tenant; p_rules }

let gen_victim =
  let open QCheck2.Gen in
  let* v_tenant = gen_oloc gen_ident in
  let* v_offered_gbps = gen_oloc gen_num in
  let* v_pkt_len = gen_oloc gen_int in
  let* v_flows = gen_oloc gen_int in
  let* v_churn = gen_oloc gen_num in
  let* v_samples_per_tick = gen_oloc gen_int in
  return
    { A.v_tenant; v_offered_gbps; v_pkt_len; v_flows; v_churn;
      v_samples_per_tick }

let gen_attack =
  let open QCheck2.Gen in
  let* a_policy = gen_oloc gen_ident in
  let* a_start = gen_oloc gen_num in
  let* a_stop = gen_oloc gen_num in
  let* a_refresh = gen_oloc gen_num in
  let* a_pkt_len = gen_oloc gen_int in
  let* a_exact_per_tick = gen_oloc gen_int in
  return { A.a_policy; a_start; a_stop; a_refresh; a_pkt_len; a_exact_per_tick }

let gen_traffic =
  let open QCheck2.Gen in
  let* tr_seed = gen_oloc gen_int in
  let* tr_duration = gen_oloc gen_num in
  let* tr_tick = gen_oloc gen_num in
  let* tr_victim = gen_opt (map d gen_victim) in
  let* tr_attack = gen_opt (map d gen_attack) in
  return { A.tr_seed; tr_duration; tr_tick; tr_victim; tr_attack }

let gen_assertion =
  let open QCheck2.Gen in
  let* m = gen_ident in
  let* cmp = oneofl [ A.Le; A.Ge; A.Lt; A.Gt; A.Eq ] in
  let* value = gen_num in
  return { A.as_metric = d m; as_cmp = cmp; as_value = d value }

let gen_run =
  let open QCheck2.Gen in
  let* r_name = gen_ident in
  let* r_backend = gen_oloc (oneofl [ A.Pmd; A.Cacheless ]) in
  let* r_shards = gen_oloc gen_int in
  let* r_batch = gen_oloc gen_int in
  let* r_upcall_queue = gen_oloc gen_int in
  let* r_mask_limit = gen_oloc gen_int in
  let* r_coarsen = gen_oloc gen_int in
  let* r_emc = gen_oloc QCheck2.Gen.bool in
  let* r_assert =
    gen_opt (map d (list_size (int_range 0 3) gen_assertion))
  in
  return
    { A.r_name = d r_name; r_backend; r_shards; r_batch; r_upcall_queue;
      r_mask_limit; r_coarsen; r_emc; r_assert }

let gen_program =
  let open QCheck2.Gen in
  let* name = gen_ident in
  let block =
    oneof
      [ map (fun t -> A.Topology (d t)) gen_topology;
        map (fun p -> A.Policy (d p)) gen_policy;
        map (fun t -> A.Traffic (d t)) gen_traffic;
        map (fun r -> A.Run (d r)) gen_run ]
  in
  let* blocks = list_size (int_range 0 5) block in
  return { A.name = d name; blocks }

let roundtrip =
  Helpers.qtest ~count:500 "parse (pp program) = program" gen_program
    (fun p ->
      let src = Pretty.to_string p in
      match Parser.parse ~file:"gen.pis" src with
      | Error diag ->
        QCheck2.Test.fail_reportf "re-parse failed: %s@.---@.%s"
          (Diag.to_string diag) src
      | Ok p' ->
        if A.equal_program p p' then true
        else
          QCheck2.Test.fail_reportf "tree changed across round trip:@.%s" src)

(* --- diagnostics ---------------------------------------------------- *)

(* Exact file:line:col and wording: diagnostics are UI contract. Each
   case is (name, source, expected messages in order). *)
let diag_cases =
  [ ( "lexer: single =",
      "scenario s\nrun r {\n  assert { peak_masks = 3 }\n}\n",
      [ "t.pis:3:23: expected '==' (single '=' is not an operator)" ] );
    ( "lexer: bad octet",
      "scenario s\npolicy p {\n  allow src 10.0.0.999/32\n}\n",
      [ "t.pis:3:13: octet 999 out of range in IP address" ] );
    ( "lexer: prefix too long",
      "scenario s\npolicy p {\n  allow src 10.0.0.0/33\n}\n",
      [ "t.pis:3:22: prefix length /33 out of range (0..32)" ] );
    ( "lexer: prefix length beyond int range",
      "scenario s\npolicy p {\n  allow src 10.0.0.0/99999999999999999999\n}\n",
      [ "t.pis:3:22: prefix length /99999999999999999999 out of range \
         (0..32)" ] );
    ( "lexer: host bits set",
      "scenario s\npolicy p {\n  allow src 10.0.0.9/24\n}\n",
      [ "t.pis:3:13: host bits set in prefix 10.0.0.9/24 (aligned base: \
         10.0.0.0)" ] );
    ( "lexer: letter after number",
      "scenario s\ntraffic {\n  duration 40s\n}\n",
      [ "t.pis:3:12: malformed number (letter follows \"40\")" ] );
    ( "parser: duplicate field",
      "scenario s\ntraffic {\n  duration 10\n  duration 20\n}\n",
      [ "t.pis:4:3: duplicate duration" ] );
    ( "parser: removed backend datapath",
      "scenario s\nrun r {\n  backend datapath\n}\n",
      [ "t.pis:3:11: backend datapath was removed; use backend pmd, which \
         runs one shard by default" ] );
    ( "parser: unknown backend",
      "scenario s\nrun r {\n  backend dpdk\n}\n",
      [ "t.pis:3:11: unknown backend dpdk (expected pmd or cacheless)" ] );
    ( "parser: empty allow",
      "scenario s\npolicy p {\n  allow\n}\n",
      [ "t.pis:3:3: allow needs at least one of src, proto, sport, dport" ] );
    ( "validate: unknown tenant",
      "scenario s\n\
       topology {\n\
      \  tenant victim { port 2 }\n\
       }\n\
       traffic {\n\
      \  victim { tenant nosuch }\n\
       }\n\
       run r {\n\
       }\n",
      [ "t.pis:6:19: unknown tenant nosuch" ] );
    ( "validate: victim on the wrong port",
      "scenario s\n\
       topology {\n\
      \  tenant v { port 5 }\n\
       }\n\
       traffic {\n\
      \  victim { tenant v }\n\
       }\n\
       run r {\n\
       }\n",
      [ "t.pis:6:19: tenant v is bound to port 5 but the victim role \
         requires port 2 (engine pin)" ] );
    ( "validate: k8s cannot pin source ports",
      "scenario s\n\
       policy evil {\n\
      \  dialect k8s\n\
      \  allow src 10.0.0.10/32 sport 53 dport 80\n\
       }\n\
       traffic {\n\
      \  attack { policy evil }\n\
       }\n\
       run r {\n\
       }\n",
      [ "t.pis:3:11: dialect k8s cannot express source-port matches \xe2\x80\x94 \
         the paper's point; use calico" ] );
    ( "validate: unknown metric",
      "scenario s\n\
       run r {\n\
      \  assert { masks_peak >= 1 }\n\
       }\n",
      [ "t.pis:3:12: unknown metric masks_peak (valid: peak_masks, \
         final_masks, final_megaflows, pre_gbps, post_gbps, upcalls, \
         upcall_drops, packets)" ] );
    ( "validate: post_gbps needs an attack",
      "scenario s\n\
       run r {\n\
      \  assert { post_gbps <= 0.5 }\n\
       }\n",
      [ "t.pis:3:12: post_gbps is undefined without an attack (no attack \
         block in traffic)" ] );
    ( "validate: no runs",
      "scenario s\n",
      [ "t.pis:1:10: at least one run block is required" ] );
    ( "validate: several mistakes, all reported",
      "scenario s\n\
       policy orphan {\n\
      \  allow src 10.0.0.0/8\n\
       }\n\
       traffic {\n\
      \  attack { policy evil }\n\
       }\n\
       run r {\n\
      \  shards 0\n\
       }\n\
       run r {\n\
       }\n",
      [ "t.pis:2:8: policy orphan is unused: neither the victim tenant's \
         whitelist nor the policy named by the attack block";
        "t.pis:6:19: unknown policy evil";
        "t.pis:9:10: shards must be >= 1 (got 0)";
        "t.pis:11:5: duplicate run r" ] ) ]

let check_diags name src expected () =
  let got =
    match Parser.parse ~file:"t.pis" src with
    | Error d -> [ Diag.to_string d ]
    | Ok prog ->
      (match Validate.check prog with
       | Error ds -> List.map Diag.to_string ds
       | Ok _ -> [])
  in
  Alcotest.(check (list string)) name expected got

let diag_tests =
  List.map
    (fun (name, src, expected) ->
      Alcotest.test_case name `Quick (check_diags name src expected))
    diag_cases

(* dune runtest runs with cwd _build/default/test (deps are staged one
   level up); fall back so `dune exec test/main.exe` from the project
   root works too. *)
let resolve rel =
  if Sys.file_exists rel then rel
  else Filename.concat "_build/default/test" rel

(* --- untrusted input never raises ---------------------------------- *)

let examples = [ "fig3.pis"; "mitigation_comparison.pis"; "multi_backend.pis" ]

let example_sources =
  lazy
    (List.map
       (fun f ->
         let ic = open_in_bin (resolve (Filename.concat "../examples" f)) in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         s)
       examples)

(* One byte-level edit: overwrite a byte, delete a span, or insert a
   run of digits (long runs overflow the integer literals, CIDR lengths
   and octets the lexer converts). *)
type edit = Set of int * char | Delete of int * int | Insert of int * string

let apply_edit s = function
  | Set (at, c) ->
    let b = Bytes.of_string s in
    if String.length s > 0 then Bytes.set b (at mod String.length s) c;
    Bytes.to_string b
  | Delete (at, len) ->
    let n = String.length s in
    if n = 0 then s
    else
      let at = at mod n in
      let len = min len (n - at) in
      String.sub s 0 at ^ String.sub s (at + len) (n - at - len)
  | Insert (at, ins) ->
    let at = at mod (String.length s + 1) in
    String.sub s 0 at ^ ins ^ String.sub s at (String.length s - at)

let gen_edit =
  let open QCheck2.Gen in
  let pos = int_bound 4096 in
  oneof
    [ map2 (fun at c -> Set (at, c)) pos
        (oneof [ oneofl [ '/'; '.'; '{'; '}'; '\n'; '-'; '#'; ' ' ];
                 char_range '0' '9'; printable ]);
      map2 (fun at len -> Delete (at, len)) pos (int_range 1 8);
      map2 (fun at ins -> Insert (at, ins)) pos
        (string_size ~gen:(char_range '0' '9') (int_range 1 24)) ]

let prop_mutated_examples_never_raise =
  Helpers.qtest ~count:20_000
    "mutated examples: lexer, parser, validator return Ok or Error"
    QCheck2.Gen.(pair (int_bound 2) (list_size (int_range 1 4) gen_edit))
    (fun (which, edits) ->
      let src =
        List.fold_left apply_edit
          (List.nth (Lazy.force example_sources) which) edits
      in
      match Parser.parse ~file:"fuzz.pis" src with
      | Error _ -> true
      | Ok prog ->
        (match Validate.check prog with Ok _ | Error _ -> true))

(* --- DSL / OCaml equivalence --------------------------------------- *)

let load_pis path =
  let path = resolve path in
  match Parser.parse_file path with
  | Error d -> Alcotest.failf "parse %s: %s" path (Diag.to_string d)
  | Ok prog ->
    (match Validate.check prog with
     | Error ds ->
       Alcotest.failf "validate %s: %s" path
         (String.concat "; " (List.map Diag.to_string ds))
     | Ok v -> v)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* fig3.pis spells out the default scenario with a compressed timeline;
   its lowering must be exactly the record a library caller would
   build. *)
let test_fig3_params () =
  let open Pi_sim in
  let v = load_pis "../examples/fig3.pis" in
  let rc = List.hd v.Validate.runs in
  let p = Interp.params_of_run v rc in
  let expected =
    { Scenario.default_params with
      Scenario.seed = 48879L;
      duration = 40.;
      attack = Some { Scenario.default_attack with Scenario.start = 10. } }
  in
  Alcotest.(check int64) "seed" expected.Scenario.seed p.Scenario.seed;
  Alcotest.(check (float 0.)) "duration" expected.Scenario.duration
    p.Scenario.duration;
  Alcotest.(check (float 0.)) "tick" expected.Scenario.tick p.Scenario.tick;
  Alcotest.(check (float 0.)) "offered"
    expected.Scenario.victim_offered_gbps p.Scenario.victim_offered_gbps;
  Alcotest.(check int) "pkt_len" expected.Scenario.victim_pkt_len
    p.Scenario.victim_pkt_len;
  Alcotest.(check int) "flows" expected.Scenario.victim_flows
    p.Scenario.victim_flows;
  Alcotest.(check (float 0.)) "churn" expected.Scenario.victim_churn
    p.Scenario.victim_churn;
  Alcotest.(check int) "samples" expected.Scenario.victim_samples_per_tick
    p.Scenario.victim_samples_per_tick;
  Alcotest.(check string) "allowed net"
    (Pi_pkt.Ipv4_addr.Prefix.to_string expected.Scenario.victim_allowed_net)
    (Pi_pkt.Ipv4_addr.Prefix.to_string p.Scenario.victim_allowed_net);
  Alcotest.(check int) "services" expected.Scenario.background_services
    p.Scenario.background_services;
  Alcotest.(check int) "shards" expected.Scenario.n_shards p.Scenario.n_shards;
  Alcotest.(check int) "batch" expected.Scenario.batch_size
    p.Scenario.batch_size;
  Alcotest.(check bool) "pmd runs keep backend=None" true
    (p.Scenario.backend = None);
  match (p.Scenario.attack, expected.Scenario.attack) with
  | Some a, Some e ->
    Alcotest.(check bool) "attack record" true (a = e)
  | _ -> Alcotest.fail "expected an armed attack"

(* Same seed => identical mask counts and stats: running the hand-built
   params through Scenario.run must reproduce the numbers in the
   interpreter's golden JSON for fig3.pis. One scenario run (~4 s). *)
let test_fig3_report_matches_golden () =
  let open Pi_sim in
  let v = load_pis "../examples/fig3.pis" in
  let rc = List.hd v.Validate.runs in
  let r = Scenario.run (Interp.params_of_run v rc) in
  let ic = open_in (resolve "../examples/golden/fig3.json") in
  let n = in_channel_length ic in
  let golden = really_input_string ic n in
  close_in ic;
  let expect_line what line =
    if not (contains ~needle:line golden) then
      Alcotest.failf "%s: %S not found in golden/fig3.json" what line
  in
  let st = r.Scenario.final_stats in
  expect_line "peak masks"
    (Printf.sprintf "\"peak_masks\": %d," r.Scenario.peak_masks);
  expect_line "final masks"
    (Printf.sprintf "\"final_masks\": %d," st.Pi_ovs.Dataplane.masks);
  expect_line "final megaflows"
    (Printf.sprintf "\"final_megaflows\": %d," st.Pi_ovs.Dataplane.megaflows);
  expect_line "packets"
    (Printf.sprintf "\"packets\": %d," st.Pi_ovs.Dataplane.packets);
  expect_line "upcalls"
    (Printf.sprintf "\"upcalls\": %d," st.Pi_ovs.Dataplane.upcalls);
  expect_line "pre gbps"
    (Printf.sprintf "\"pre_gbps\": %s,"
       (Pi_telemetry.Json.float r.Scenario.pre_attack_mean_gbps));
  expect_line "post gbps"
    (Printf.sprintf "\"post_gbps\": %s,"
       (Pi_telemetry.Json.float r.Scenario.post_attack_mean_gbps))

(* --- interpreter surface ------------------------------------------- *)

let tiny_src =
  "scenario tiny\n\
   traffic {\n\
  \  seed 7\n\
  \  duration 3\n\
  \  victim { flows 60 samples_per_tick 30 }\n\
   }\n\
   run tiny {\n\
  \  backend cacheless\n\
  \  assert { peak_masks == 0 }\n\
   }\n"

let test_interp_json_shape () =
  let v =
    match Parser.parse ~file:"tiny.pis" tiny_src with
    | Error d -> Alcotest.failf "parse: %s" (Diag.to_string d)
    | Ok prog ->
      (match Validate.check prog with
       | Error ds ->
         Alcotest.failf "validate: %s"
           (String.concat "; " (List.map Diag.to_string ds))
       | Ok v -> v)
  in
  let oc = Interp.run v in
  Alcotest.(check bool) "assertions hold" true (Interp.passed oc);
  let json = Interp.json oc in
  let j2 = Interp.json oc in
  Alcotest.(check string) "rendering is deterministic" json j2;
  Alcotest.(check bool) "newline-terminated" true
    (String.length json > 0 && json.[String.length json - 1] = '\n');
  List.iter
    (fun needle ->
      if not (contains ~needle json) then
        Alcotest.failf "%S missing from json:\n%s" needle json)
    [ "\"scenario\": \"tiny\"";
      "\"seed\": 7";
      "\"backend\": \"cacheless\"";
      "{ \"metric\": \"peak_masks\", \"cmp\": \"==\", \"value\": 0, \
       \"actual\": 0, \"ok\": true }";
      "\"ok\": true" ]

let suite =
  [ roundtrip ]
  @ diag_tests
  @ [ prop_mutated_examples_never_raise;
      Alcotest.test_case "fig3.pis lowers to the default-params record"
        `Quick test_fig3_params;
      Alcotest.test_case "fig3 golden JSON = direct Scenario.run numbers"
        `Slow test_fig3_report_matches_golden;
      Alcotest.test_case "interpreter JSON is stable and self-describing"
        `Quick test_interp_json_shape ]
