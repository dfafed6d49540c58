open Pi_classifier
open Helpers

let find_rule t flow = (tss_lookup t flow).rule

let whitelist_src () =
  let t = Tss.create () in
  let allow = Pattern.with_ip_src Pattern.any (pfx "10.0.0.10/32") in
  Tss.insert t (Rule.make ~priority:100 ~pattern:allow ~action:"allow" ());
  Tss.insert t (Rule.make ~priority:1 ~pattern:Pattern.any ~action:"deny" ());
  t

let test_basic_find () =
  let t = whitelist_src () in
  (match find_rule t (Flow.make ~ip_src:(ip "10.0.0.10") ()) with
   | Some r -> Alcotest.(check string) "allow" "allow" r.Rule.action
   | None -> Alcotest.fail "no match");
  match find_rule t (Flow.make ~ip_src:(ip "10.0.0.11") ()) with
  | Some r -> Alcotest.(check string) "deny" "deny" r.Rule.action
  | None -> Alcotest.fail "no match"

let test_subtable_count () =
  let t = whitelist_src () in
  Alcotest.(check int) "two masks, two subtables" 2 (Tss.n_subtables t);
  Alcotest.(check int) "two rules" 2 (Tss.n_rules t)

(* The quantitative heart of Fig. 2b: one megaflow mask per divergence
   depth, 32 for an exact IPv4 source. *)
let test_fig2b_masks () =
  let t = whitelist_src () in
  let masks = Hashtbl.create 64 in
  let base = ip "10.0.0.10" in
  for k = 0 to 31 do
    let src = Int32.logxor base (Int32.shift_left 1l (31 - k)) in
    let r = tss_lookup t (Flow.make ~ip_src:src ()) in
    (match r.rule with
     | Some ru -> Alcotest.(check string) "deny" "deny" ru.Rule.action
     | None -> Alcotest.fail "no rule");
    Alcotest.(check (option int))
      (Printf.sprintf "prefix length at bit %d" k)
      (Some (k + 1))
      (Mask.prefix_len r.megaflow Field.Ip_src);
    Hashtbl.replace masks (Format.asprintf "%a" Mask.pp r.megaflow) ()
  done;
  Alcotest.(check int) "32 distinct masks" 32 (Hashtbl.length masks)

let test_allow_side_exact () =
  let t = whitelist_src () in
  let r = tss_lookup t (Flow.make ~ip_src:(ip "10.0.0.10") ()) in
  Alcotest.(check (option int)) "allow megaflow pins the field" (Some 32)
    (Mask.prefix_len r.megaflow Field.Ip_src)

let count_masks config fields =
  let t = Tss.create ~config () in
  let allow =
    List.fold_left
      (fun p f ->
        match f with
        | Field.Ip_src -> Pattern.with_ip_src p (pfx "10.0.0.10/32")
        | Field.Tp_src -> Pattern.with_tp_src p 53
        | Field.Tp_dst -> Pattern.with_tp_dst p 80
        | _ -> p)
      Pattern.any fields
  in
  Tss.insert t (Rule.make ~priority:100 ~pattern:allow ~action:"allow" ());
  Tss.insert t (Rule.make ~priority:1 ~pattern:Pattern.any ~action:"deny" ());
  let masks = Hashtbl.create 1024 in
  let base = ip "10.0.0.10" in
  let depths f =
    match f with Field.Ip_src -> 32 | Field.Tp_src | Field.Tp_dst -> 16 | _ -> 0
  in
  let rec enumerate acc = function
    | [] ->
      let flow =
        List.fold_left
          (fun fl (f, d) ->
            let v =
              match f with
              | Field.Ip_src ->
                Int32.to_int (Int32.logxor base (Int32.shift_left 1l (32 - d)))
                land 0xFFFFFFFF
              | Field.Tp_src -> 53 lxor (1 lsl (16 - d))
              | Field.Tp_dst -> 80 lxor (1 lsl (16 - d))
              | _ -> 0
            in
            Flow.with_field fl f v)
          (Flow.make ~ip_src:base ~tp_src:53 ~tp_dst:80 ())
          acc
      in
      let r = tss_lookup t flow in
      Hashtbl.replace masks (Mask.hash r.megaflow, r.megaflow) ()
    | f :: rest ->
      for d = 1 to depths f do
        enumerate ((f, d) :: acc) rest
      done
  in
  enumerate [] fields;
  Hashtbl.length masks

let test_multiplicative_512 () =
  Alcotest.(check int) "512 masks" 512
    (count_masks Tss.default_config [ Field.Ip_src; Field.Tp_dst ])

let test_multiplicative_8192 () =
  Alcotest.(check int) "8192 masks" 8192
    (count_masks Tss.default_config [ Field.Ip_src; Field.Tp_src; Field.Tp_dst ])

let test_short_circuit_ablation () =
  (* A stock-OVS configuration (IP tries only, short-circuit) caps the
     same attack at 32 masks. *)
  Alcotest.(check int) "32 masks" 32
    (count_masks Tss.ovs_default_config [ Field.Ip_src; Field.Tp_dst ])

let gen_setting =
  QCheck2.Gen.(triple gen_rules (list_size (return 30) gen_small_flow) bool)

(* TSS must agree with the linear reference classifier on every flow. *)
let prop_oracle_equivalence =
  qtest ~count:300 "TSS ≡ linear reference" gen_setting
    (fun (rules, flows, staged) ->
      let config = { Tss.default_config with Tss.staged_lookup = staged } in
      let tss = Tss.create ~config () in
      let lin = Linear.create () in
      List.iter
        (fun r ->
          Tss.insert tss r;
          Linear.insert lin r)
        rules;
      List.for_all
        (fun f ->
          let a = find_rule tss f in
          let b = Linear.lookup lin f in
          match (a, b) with
          | None, None -> true
          | Some x, Some y -> x.Rule.seq = y.Rule.seq
          | Some _, None | None, Some _ -> false)
        flows)

(* Differential churn: the same interleaved insert/remove stream drives
   TSS and the linear oracle, with find-agreement checked after every
   round. This is the property that pins the flat-store migration: a
   backward-shift deletion bug, a stale stage-set count, a leaked trie
   reference or a mis-compacted arena all surface as a verdict
   divergence under churn. A final round compares lookup megaflow
   masks against a classifier freshly rebuilt from the survivors — the
   churned structures must leave no residue that narrows or widens
   un-wildcarding. *)
let gen_churn_setting =
  QCheck2.Gen.(
    triple
      (list_size (int_range 2 5) gen_rules)   (* insertion rounds *)
      (list_size (return 15) gen_small_flow)
      bool)

let prop_churn_equivalence =
  qtest ~count:300 "TSS ≡ linear under insert/remove churn" gen_churn_setting
    (fun (rounds, flows, staged) ->
      let config = { Tss.default_config with Tss.staged_lookup = staged } in
      let tss = Tss.create ~config () in
      let lin = Linear.create () in
      let agree () =
        List.for_all
          (fun f ->
            match (find_rule tss f, Linear.lookup lin f) with
            | None, None -> true
            | Some x, Some y -> x.Rule.seq = y.Rule.seq
            | Some _, None | None, Some _ -> false)
          flows
      in
      let ok =
        List.for_all
          (fun rules ->
            List.iter
              (fun r ->
                Tss.insert tss r;
                Linear.insert lin r)
              rules;
            if not (agree ()) then false
            else begin
              (* Remove a deterministic slice (every rule with an even
                 seq) from both sides, then re-check. *)
              let pred (r : string Rule.t) = r.Rule.seq mod 2 = 0 in
              let a = Tss.remove tss pred in
              let b = Linear.remove lin pred in
              a = b && Tss.n_rules tss = Linear.length lin && agree ()
            end)
          rounds
      in
      ok
      &&
      (* Megaflow agreement with a pristine rebuild from the survivors:
         churn must not change what un-wildcarding produces. *)
      let fresh = Tss.create ~config () in
      List.iter (fun r -> Tss.insert fresh r) (Tss.rules tss);
      List.for_all
        (fun f ->
          let a = tss_lookup tss f in
          let b = tss_lookup fresh f in
          Mask.equal a.megaflow b.megaflow
          &&
          match (a.rule, b.rule) with
          | None, None -> true
          | Some x, Some y -> x.Rule.seq = y.Rule.seq
          | Some _, None | None, Some _ -> false)
        flows)

(* Megaflow soundness — the invariant that makes flow caching correct
   and whose maximal-wildcarding instantiation the attack exploits: any
   flow agreeing with the looked-up flow on the generated megaflow mask
   must receive the same verdict from the full classifier. *)
let prop_megaflow_soundness =
  qtest ~count:300 "megaflow soundness"
    QCheck2.Gen.(triple gen_rules gen_small_flow (list_size (return 20) gen_small_flow))
    (fun (rules, probe, others) ->
      let tss = Tss.create () in
      let lin = Linear.create () in
      List.iter
        (fun r ->
          Tss.insert tss r;
          Linear.insert lin r)
        rules;
      let r = tss_lookup tss probe in
      let verdict f =
        match Linear.lookup lin f with
        | Some x -> Some x.Rule.seq
        | None -> None
      in
      let expected = verdict probe in
      List.for_all
        (fun other ->
          (* Graft the megaflow-significant bits of [probe] onto [other]. *)
          let patched =
            List.fold_left
              (fun acc field ->
                let m = Mask.get r.megaflow field in
                let v =
                  Flow.get probe field land m
                  lor (Flow.get other field land lnot m)
                in
                Flow.with_field acc field v)
              other Field.all
          in
          verdict patched = expected)
        others)

(* Slot independence: a slot's result depends only on its own flow, so
   a batch at any size, in any slot order and with repeated flows gives
   every slot exactly what a batch of one gives that flow. The batch
   scratch is reused across sizes, as the slow path reuses its own. *)
let batch_configs =
  [ Tss.default_config;
    { Tss.default_config with Tss.staged_lookup = false };
    Tss.ovs_default_config ]

let prop_batch_slot_independence =
  qtest ~count:200 "find_wc_batch slots ≡ one-slot lookups"
    QCheck2.Gen.(
      triple gen_rules (list_size (return 16) gen_small_flow)
        (oneofl batch_configs))
    (fun (rules, flows, config) ->
      let tss = Tss.create ~config () in
      List.iter (Tss.insert tss) rules;
      let distinct = Array.of_list flows in
      let bs = Tss.batch ~capacity:32 in
      List.for_all
        (fun n ->
          (* Reversed slot order over flows that each appear twice. *)
          let flows = Array.init n (fun k -> distinct.(k / 2)) in
          let idx = Array.init n (fun j -> n - 1 - j) in
          Tss.find_wc_batch tss bs flows ~idx ~n;
          let ok = ref true in
          for j = 0 to n - 1 do
            let one = tss_lookup tss flows.(idx.(j)) in
            ok :=
              !ok
              && Option.map (fun r -> r.Rule.seq) (Tss.batch_rule bs j)
                 = Option.map (fun r -> r.Rule.seq) one.rule
              && Mask.equal (Tss.batch_megaflow bs j) one.megaflow
              && Tss.batch_probes bs j = one.probes
          done;
          !ok)
        [ 1; 7; 32 ])

let batch_overflow () =
  let flows = Array.make 5 (Flow.make ()) in
  Tss.find_wc_batch (whitelist_src ()) (Tss.batch ~capacity:4) flows
    ~idx:[| 0; 1; 2; 3; 4 |] ~n:5

let test_remove_updates_structures () =
  let t = whitelist_src () in
  let n = Tss.remove t (fun r -> r.Rule.action = "allow") in
  Alcotest.(check int) "removed" 1 n;
  Alcotest.(check int) "one subtable left" 1 (Tss.n_subtables t);
  (* With the allow rule gone, a matching packet now hits the deny
     catch-all and the trie no longer narrows anything. *)
  match find_rule t (Flow.make ~ip_src:(ip "10.0.0.10") ()) with
  | Some r -> Alcotest.(check string) "deny now" "deny" r.Rule.action
  | None -> Alcotest.fail "no match"

let test_remove_then_masks_reset () =
  let t = whitelist_src () in
  ignore (Tss.remove t (fun r -> r.Rule.action = "allow"));
  let r = tss_lookup t (Flow.make ~ip_src:(ip "10.0.0.11") ()) in
  Alcotest.(check (option int)) "no src bits needed" (Some 0)
    (Mask.prefix_len r.megaflow Field.Ip_src)

let test_probes_counted () =
  let t = whitelist_src () in
  let r = tss_lookup t (Flow.make ~ip_src:(ip "10.0.0.11") ()) in
  Alcotest.(check int) "both subtables examined" 2 r.probes

let test_priority_cutoff () =
  (* Once a high-priority rule matched, lower-max-priority subtables are
     not probed. *)
  let t = Tss.create () in
  Tss.insert t
    (Rule.make ~priority:100
       ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.0/8"))
       ~action:"hi" ());
  Tss.insert t (Rule.make ~priority:1 ~pattern:Pattern.any ~action:"lo" ());
  let r = tss_lookup t (Flow.make ~ip_src:(ip "10.1.1.1") ()) in
  Alcotest.(check int) "only first subtable probed" 1 r.probes;
  match r.rule with
  | Some ru -> Alcotest.(check string) "hi wins" "hi" ru.Rule.action
  | None -> Alcotest.fail "no match"

let test_insertion_order_tiebreak () =
  let t = Tss.create () in
  Tss.insert t (Rule.make ~priority:5 ~pattern:Pattern.any ~action:"first" ());
  Tss.insert t (Rule.make ~priority:5 ~pattern:Pattern.any ~action:"second" ());
  match find_rule t (Flow.make ()) with
  | Some r -> Alcotest.(check string) "first added wins" "first" r.Rule.action
  | None -> Alcotest.fail "no match"

let test_rules_listing () =
  let t = whitelist_src () in
  Alcotest.(check (list string)) "precedence order" [ "allow"; "deny" ]
    (List.map (fun (r : string Rule.t) -> r.Rule.action) (Tss.rules t))

let suite =
  [ Alcotest.test_case "basic find" `Quick test_basic_find;
    Alcotest.test_case "subtable count" `Quick test_subtable_count;
    Alcotest.test_case "Fig.2b: 32 masks, right lengths" `Quick test_fig2b_masks;
    Alcotest.test_case "allow-side exact megaflow" `Quick test_allow_side_exact;
    Alcotest.test_case "512 masks (src+dport)" `Quick test_multiplicative_512;
    Alcotest.test_case "8192 masks (src+sport+dport)" `Slow test_multiplicative_8192;
    Alcotest.test_case "stock-OVS ablation: 32 masks" `Quick test_short_circuit_ablation;
    prop_oracle_equivalence;
    prop_churn_equivalence;
    prop_megaflow_soundness;
    prop_batch_slot_independence;
    check_raises_invalid "batch overflow raises" batch_overflow;
    Alcotest.test_case "remove updates structures" `Quick test_remove_updates_structures;
    Alcotest.test_case "remove resets trie narrowing" `Quick test_remove_then_masks_reset;
    Alcotest.test_case "probes counted" `Quick test_probes_counted;
    Alcotest.test_case "priority cutoff" `Quick test_priority_cutoff;
    Alcotest.test_case "insertion-order tiebreak" `Quick test_insertion_order_tiebreak;
    Alcotest.test_case "rules listing" `Quick test_rules_listing ]
