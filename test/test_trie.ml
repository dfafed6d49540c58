open Pi_classifier
open Helpers

let test_insert_mem_remove () =
  let t = Trie.create ~width:8 in
  Alcotest.(check bool) "empty" true (Trie.is_empty t);
  Trie.insert t ~value:0x0A ~len:8;
  Alcotest.(check bool) "member" true (Trie.mem t ~value:0x0A ~len:8);
  Alcotest.(check bool) "other absent" false (Trie.mem t ~value:0x0B ~len:8);
  Alcotest.(check bool) "shorter absent" false (Trie.mem t ~value:0x0A ~len:7);
  Trie.remove t ~value:0x0A ~len:8;
  Alcotest.(check bool) "empty again" true (Trie.is_empty t)

let test_refcount () =
  let t = Trie.create ~width:8 in
  Trie.insert t ~value:0x0A ~len:8;
  Trie.insert t ~value:0x0A ~len:8;
  Alcotest.(check int) "size 2" 2 (Trie.size t);
  Trie.remove t ~value:0x0A ~len:8;
  Alcotest.(check bool) "still member" true (Trie.mem t ~value:0x0A ~len:8);
  Trie.remove t ~value:0x0A ~len:8;
  Alcotest.(check bool) "gone" false (Trie.mem t ~value:0x0A ~len:8)

let test_remove_absent () =
  let t = Trie.create ~width:8 in
  match Trie.remove t ~value:1 ~len:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "removing absent prefix should raise"

(* The paper's Fig. 2 case: an exact 8-bit value 00001010. An
   adversarial value diverging at bit k (1-indexed) must force exactly k
   un-wildcarded bits. *)
let test_fig2_divergence () =
  let t = Trie.create ~width:8 in
  Trie.insert t ~value:0b00001010 ~len:8;
  for k = 1 to 8 do
    let v = 0b00001010 lxor (1 lsl (8 - k)) in
    let r = Trie.lookup t v in
    Alcotest.(check int) (Printf.sprintf "diverge at bit %d" k) k r.Trie.checked;
    Alcotest.(check int) "no match" (-1) (Trie.longest_match r)
  done;
  let r = Trie.lookup t 0b00001010 in
  Alcotest.(check int) "exact match checks all" 8 r.Trie.checked;
  Alcotest.(check int) "match length" 8 (Trie.longest_match r)

let test_plens_multiple () =
  let t = Trie.create ~width:8 in
  Trie.insert t ~value:0b10000000 ~len:1;   (* 1/1 *)
  Trie.insert t ~value:0b10100000 ~len:3;   (* 101/3 *)
  let r = Trie.lookup t 0b10100001 in
  Alcotest.(check bool) "len1 matches" true (Trie.covers r 1);
  Alcotest.(check bool) "len2 no" false (Trie.covers r 2);
  Alcotest.(check bool) "len3 matches" true (Trie.covers r 3);
  Alcotest.(check int) "longest" 3 (Trie.longest_match r)

let test_root_prefix () =
  let t = Trie.create ~width:8 in
  Trie.insert t ~value:0 ~len:0;
  let r = Trie.lookup t 0xFF in
  Alcotest.(check bool) "/0 covers all" true (Trie.covers r 0);
  Alcotest.(check int) "longest 0" 0 (Trie.longest_match r)

(* Fig. 2b verbatim: complement of {00001010} over 8 bits. *)
let test_fig2b_complement () =
  let t = Trie.create ~width:8 in
  Trie.insert t ~value:0b00001010 ~len:8;
  let expected =
    [ (0b10000000, 1);
      (0b01000000, 2);
      (0b00100000, 3);
      (0b00010000, 4);
      (0b00000000, 5);
      (0b00001100, 6);
      (0b00001000, 7);
      (0b00001011, 8) ]
  in
  Alcotest.(check (list (pair int int))) "Fig. 2b deny rows" expected
    (Trie.complement t)

let test_complement_empty () =
  let t = Trie.create ~width:8 in
  Alcotest.(check (list (pair int int))) "everything" [ (0, 0) ]
    (Trie.complement t)

let test_complement_full () =
  let t = Trie.create ~width:8 in
  Trie.insert t ~value:0 ~len:0;
  Alcotest.(check (list (pair int int))) "nothing" [] (Trie.complement t)

let covers prefixes v =
  List.exists
    (fun (p, len) ->
      len = 0
      || p lsr (8 - len) = v lsr (8 - len))
    prefixes

(* Exhaustive at 8 bits: complement ∪ stored = everything, disjointly. *)
let test_complement_partition_exhaustive () =
  let rng = Pi_pkt.Prng.create 123L in
  for _ = 1 to 50 do
    let t = Trie.create ~width:8 in
    let stored = ref [] in
    let n = 1 + Pi_pkt.Prng.int rng 4 in
    for _ = 1 to n do
      let len = Pi_pkt.Prng.int rng 9 in
      let v = Pi_pkt.Prng.int rng 256 land (0xFF lsl (8 - len)) land 0xFF in
      Trie.insert t ~value:v ~len;
      stored := (v, len) :: !stored
    done;
    let comp = Trie.complement t in
    for x = 0 to 255 do
      let v = x in
      let in_stored = covers !stored v in
      let in_comp = covers comp v in
      if in_stored && in_comp then
        Alcotest.failf "value %d covered by both" x;
      if (not in_stored) && not in_comp then
        Alcotest.failf "value %d covered by neither" x
    done
  done

let test_complement_count_exact_value () =
  (* An exact w-bit value's complement needs exactly w prefixes — the
     count the whole attack scales with. *)
  List.iter
    (fun w ->
      let t = Trie.create ~width:w in
      Trie.insert t ~value:5 ~len:w;
      Alcotest.(check int)
        (Printf.sprintf "width %d" w)
        w
        (List.length (Trie.complement t)))
    [ 4; 8; 16; 32 ]

let prop_lookup_checked_sound =
  (* Any value sharing the checked bits yields the same longest match. *)
  qtest ~count:500 "checked bits pin the lookup result"
    QCheck2.Gen.(
      let* vals = list_size (int_range 1 5) (int_range 0 255) in
      let* probe = int_range 0 255 in
      let* other = int_range 0 255 in
      return (vals, probe, other))
    (fun (vals, probe, other) ->
      let t = Trie.create ~width:8 in
      List.iter (fun v -> Trie.insert t ~value:v ~len:8) vals;
      let r = Trie.lookup t probe in
      let c = r.Trie.checked in
      let mask = if c = 0 then 0 else 0xFF lsl (8 - c) land 0xFF in
      let other = (other land lnot mask) lor (probe land mask) in
      let r' = Trie.lookup t other in
      Trie.longest_match r = Trie.longest_match r')

(* A lookup that parts from a 62-bit segment after its first bit:
   the differing run is 61 ones, which a double rounds up to 2^61. *)
let test_long_differing_run () =
  let t = Trie.create ~width:62 in
  Trie.insert t ~value:0 ~len:62;
  let r = Trie.lookup t ((1 lsl 61) - 1) in
  Alcotest.(check int) "one shared bit, two checked" 2 r.Trie.checked;
  Alcotest.(check int) "no match" (-1) (Trie.longest_match r)

let test_prefixes_listing () =
  let t = Trie.create ~width:8 in
  Trie.insert t ~value:0b11000000 ~len:2;
  Trie.insert t ~value:0b00001010 ~len:8;
  Alcotest.(check (list (pair int int))) "sorted prefixes"
    [ (0b11000000, 2); (0b00001010, 8) ]
    (Trie.prefixes t)

(* --- reference model ------------------------------------------------

   The path-compressed trie against the bit-per-node one it replaced
   ([Trie_ref]): the same insert/remove sequence must give the same
   lookups, membership, sizes, listings and complements. Values come
   from a few random bases with random low bits flipped, so prefixes
   share long runs and nodes split and re-merge; lengths 0 and [width]
   are drawn often, and prefixes are re-inserted (the reference counts
   must agree too). *)

type op = Insert of int * int | Remove of int | Probe of int

let gen_model =
  let open QCheck2.Gen in
  let* width = oneof [ oneofl [ 1; 2; 8; 32; 48; 62 ]; int_range 1 62 ] in
  let full = if width = 62 then max_int else (1 lsl width) - 1 in
  let* bases = list_size (int_range 1 3) (map (fun v -> v land full) int) in
  let gen_value =
    let* base = oneofl bases in
    let* k = int_range 0 width in
    (* all ones: a long run of differing bits, which a lookup measures *)
    let* noise = oneof [ int; return (-1) ] in
    return (base lxor (noise land ((1 lsl k) - 1)) land full)
  in
  let gen_len =
    frequency [ (1, return 0); (2, return width); (5, int_range 0 width) ]
  in
  let gen_op =
    frequency
      [ (4, map2 (fun v l -> Insert (v, l)) gen_value gen_len);
        (2, map (fun i -> Remove i) nat);
        (3, map (fun v -> Probe v) gen_value) ]
  in
  let* ops = list_size (int_range 1 40) gen_op in
  return (width, ops)

let plens_of_ref (r : Trie_ref.lookup_result) =
  let bits = ref 0 in
  Array.iteri (fun n b -> if b then bits := !bits lor (1 lsl n)) r.Trie_ref.plens;
  !bits

let prop_matches_reference =
  qtest ~count:500 "path-compressed trie = bit-per-node reference" gen_model
    (fun (width, ops) ->
      let t = Trie.create ~width and m = Trie_ref.create ~width in
      let r = Trie.result () and rr = Trie_ref.result ~width in
      let stored = ref [] in     (* with multiplicity, newest first *)
      let prefix v l = if l = 0 then 0 else v land lnot ((1 lsl (width - l)) - 1) in
      let agree_on v =
        Trie.lookup_into t v r;
        Trie_ref.lookup_into m v rr;
        if r.Trie.plens <> plens_of_ref rr || r.Trie.checked <> rr.Trie_ref.checked
        then
          QCheck2.Test.fail_reportf
            "lookup %#x: covering lengths %#x / reference %#x, checked %d / %d"
            v r.Trie.plens (plens_of_ref rr) r.Trie.checked rr.Trie_ref.checked;
        for l = 0 to width do
          if Trie.mem t ~value:(prefix v l) ~len:l
             <> Trie_ref.mem m ~value:(prefix v l) ~len:l
          then QCheck2.Test.fail_reportf "mem %#x/%d differs" (prefix v l) l
        done
      in
      let step = function
        | Insert (v, l) ->
          let v = prefix v l in
          Trie.insert t ~value:v ~len:l;
          Trie_ref.insert m ~value:v ~len:l;
          stored := (v, l) :: !stored;
          agree_on v
        | Remove i ->
          (match !stored with
           | [] -> ()
           | l ->
             let v, len = List.nth l (i mod List.length l) in
             Trie.remove t ~value:v ~len;
             Trie_ref.remove m ~value:v ~len;
             let rec drop = function
               | [] -> []
               | x :: rest -> if x = (v, len) then rest else x :: drop rest
             in
             stored := drop !stored;
             agree_on v)
        | Probe v -> agree_on v
      in
      List.iter
        (fun op ->
          step op;
          if Trie.size t <> Trie_ref.size m then
            QCheck2.Test.fail_reportf "size %d / reference %d" (Trie.size t)
              (Trie_ref.size m);
          if Trie.prefixes t <> Trie_ref.prefixes m then
            QCheck2.Test.fail_report "prefixes differ";
          if Trie.complement t <> Trie_ref.complement m then
            QCheck2.Test.fail_report "complements differ")
        ops;
      true)

let suite =
  [ Alcotest.test_case "insert/mem/remove" `Quick test_insert_mem_remove;
    Alcotest.test_case "refcount" `Quick test_refcount;
    Alcotest.test_case "remove absent" `Quick test_remove_absent;
    Alcotest.test_case "Fig.2 divergence depths" `Quick test_fig2_divergence;
    Alcotest.test_case "plens with nested prefixes" `Quick test_plens_multiple;
    Alcotest.test_case "/0 prefix" `Quick test_root_prefix;
    Alcotest.test_case "Fig.2b complement table" `Quick test_fig2b_complement;
    Alcotest.test_case "complement of empty" `Quick test_complement_empty;
    Alcotest.test_case "complement of full" `Quick test_complement_full;
    Alcotest.test_case "complement partitions (exhaustive 8-bit)" `Quick
      test_complement_partition_exhaustive;
    Alcotest.test_case "complement count = width" `Quick
      test_complement_count_exact_value;
    prop_lookup_checked_sound;
    Alcotest.test_case "prefixes listing" `Quick test_prefixes_listing;
    Alcotest.test_case "62-bit differing run" `Quick test_long_differing_run;
    prop_matches_reference ]
