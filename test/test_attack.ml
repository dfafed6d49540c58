open Policy_injection
open Helpers

let mk_cloud flavour =
  let cloud = Pi_cms.Cloud.create ~flavour ~seed:21L ~n_servers:1 () in
  let pod =
    Pi_cms.Cloud.deploy_pod cloud ~tenant:"mallory" ~name:"covert"
      ~server:"server-1" ~ip:(ip "10.1.0.3") ()
  in
  (cloud, pod)

let test_launch_k8s () =
  let cloud, pod = mk_cloud Pi_cms.Cloud.Kubernetes in
  match
    Attack.launch ~cloud ~tenant:"mallory" ~pod ~variant:Variant.Src_dport
      ~start:0. ~stop:10. ()
  with
  | Ok t ->
    Alcotest.(check int) "expected masks" 512 (Attack.expected_masks t)
  | Error e -> Alcotest.failf "launch failed: %a" Attack.pp_error e

let test_launch_respects_cms_limits () =
  let cloud, pod = mk_cloud Pi_cms.Cloud.Kubernetes in
  (match
     Attack.launch ~cloud ~tenant:"mallory" ~pod
       ~variant:Variant.Src_sport_dport ~start:0. ~stop:10. ()
   with
   | Error (Attack.Not_expressible _) -> ()
   | Error e -> Alcotest.failf "wrong error: %a" Attack.pp_error e
   | Ok _ -> Alcotest.fail "k8s accepted a source-port filter");
  let cloud, pod = mk_cloud Pi_cms.Cloud.Openstack in
  match
    Attack.launch ~cloud ~tenant:"mallory" ~pod ~variant:Variant.Src_sport_dport
      ~start:0. ~stop:10. ()
  with
  | Error (Attack.Not_expressible _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Attack.pp_error e
  | Ok _ -> Alcotest.fail "openstack accepted a source-port filter"

let test_launch_calico_full () =
  let cloud, pod = mk_cloud Pi_cms.Cloud.Kubernetes_calico in
  match
    Attack.launch ~cloud ~tenant:"mallory" ~pod ~variant:Variant.Src_sport_dport
      ~start:0. ~stop:10. ()
  with
  | Ok t -> Alcotest.(check int) "8192" 8192 (Attack.expected_masks t)
  | Error e -> Alcotest.failf "launch failed: %a" Attack.pp_error e

let test_launch_foreign_pod_rejected () =
  let cloud, pod = mk_cloud Pi_cms.Cloud.Openstack in
  match
    Attack.launch ~cloud ~tenant:"intruder" ~pod ~variant:Variant.Src_only
      ~start:0. ~stop:10. ()
  with
  | Error (Attack.Cms_rejected _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Attack.pp_error e
  | Ok _ -> Alcotest.fail "foreign tenant launched an attack"

let test_feed_materialises_masks () =
  let cloud, pod = mk_cloud Pi_cms.Cloud.Kubernetes in
  match
    Attack.launch ~cloud ~tenant:"mallory" ~pod ~variant:Variant.Src_only
      ~refresh_period:1. ~start:0. ~stop:2. ()
  with
  | Error e -> Alcotest.failf "launch failed: %a" Attack.pp_error e
  | Ok t ->
    let events = Campaign.events t.Attack.campaign in
    (* Feed the first round... *)
    let rest = Attack.feed t cloud ~upto:1. events in
    let dp = Pi_cms.Cloud.dataplane_exn cloud "server-1" in
    Alcotest.(check int) "32 masks after round one" 32
      (Pi_ovs.Dataplane.stats dp).Pi_ovs.Dataplane.masks;
    (* ...and the remainder resumes where we stopped. *)
    (match rest () with
     | Seq.Cons ((ts, _), _) ->
       Alcotest.(check bool) "resumes at second round" true (ts >= 1.)
     | Seq.Nil -> Alcotest.fail "no second round");
    let (_ : (float * Pi_classifier.Flow.t) Seq.t) =
      Attack.feed t cloud ~upto:2. rest
    in
    Alcotest.(check int) "still 32 masks after refresh" 32
      (Pi_ovs.Dataplane.stats dp).Pi_ovs.Dataplane.masks

let test_campaign_rate () =
  let cloud, pod = mk_cloud Pi_cms.Cloud.Kubernetes_calico in
  match
    Attack.launch ~cloud ~tenant:"mallory" ~pod ~variant:Variant.Src_sport_dport
      ~start:0. ~stop:20. ()
  with
  | Error e -> Alcotest.failf "launch failed: %a" Attack.pp_error e
  | Ok t ->
    let bps = Campaign.bandwidth_bps t.Attack.campaign in
    Alcotest.(check bool) "1-2 Mbps" true (bps >= 1e6 && bps <= 2e6)

(* Fig. 1 shows the attacker's ACLs at her virtual ports on BOTH
   servers: a tenant with pods fleet-wide degrades every host it
   touches. *)
let test_multi_server_blast_radius () =
  let cloud = Pi_cms.Cloud.create ~flavour:Pi_cms.Cloud.Kubernetes ~seed:77L ~n_servers:2 () in
  let pods =
    List.map
      (fun (name, server, addr) ->
        Pi_cms.Cloud.deploy_pod cloud ~tenant:"mallory" ~name ~server
          ~ip:(ip addr) ())
      [ ("covert-a", "server-1", "10.1.0.3"); ("covert-b", "server-2", "10.2.0.3") ]
  in
  List.iter
    (fun pod ->
      match
        Attack.launch ~cloud ~tenant:"mallory" ~pod ~variant:Variant.Src_only
          ~refresh_period:1. ~start:0. ~stop:1. ()
      with
      | Ok t ->
        let (_ : (float * Pi_classifier.Flow.t) Seq.t) =
          Attack.feed t cloud ~upto:1. (Campaign.events t.Attack.campaign)
        in
        ()
      | Error e -> Alcotest.failf "launch failed: %a" Attack.pp_error e)
    pods;
  List.iter
    (fun server ->
      let dp = Pi_cms.Cloud.dataplane_exn cloud server in
      Alcotest.(check int)
        (Printf.sprintf "%s infected" server)
        32 (Pi_ovs.Dataplane.stats dp).Pi_ovs.Dataplane.masks)
    [ "server-1"; "server-2" ]

let suite =
  [ Alcotest.test_case "launch on kubernetes" `Quick test_launch_k8s;
    Alcotest.test_case "CMS expressiveness limits enforced" `Quick
      test_launch_respects_cms_limits;
    Alcotest.test_case "calico enables the full variant" `Quick
      test_launch_calico_full;
    Alcotest.test_case "foreign pod rejected" `Quick
      test_launch_foreign_pod_rejected;
    Alcotest.test_case "feed materialises the masks" `Quick
      test_feed_materialises_masks;
    Alcotest.test_case "campaign stays low-bandwidth" `Quick test_campaign_rate;
    Alcotest.test_case "multi-server blast radius" `Quick
      test_multi_server_blast_radius ]
