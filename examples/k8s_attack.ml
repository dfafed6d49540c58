(* The Kubernetes variant of the policy-injection attack (512 masks).

   A tenant ("mallory") deploys an ordinary pod, attaches a perfectly
   legitimate NetworkPolicy — allow one trusted source IP on one UDP
   service port, deny the rest — and then feeds it the covert packet
   sequence. The shared megaflow cache of the server inflates to 512
   masks, degrading every tenant on the host.

   Run with: dune exec examples/k8s_attack.exe *)

open Policy_injection

let ip = Pi_pkt.Ipv4_addr.of_string

let () =
  (* A two-server Kubernetes cloud. *)
  let cloud = Pi_cms.Cloud.create ~flavour:Pi_cms.Cloud.Kubernetes ~seed:7L ~n_servers:2 () in
  let victim =
    Pi_cms.Cloud.deploy_pod cloud ~tenant:"acme" ~name:"shop-frontend"
      ~labels:[ "app=shop" ] ~server:"server-1" ~ip:(ip "10.1.0.2") ()
  in
  let attacker_pod =
    Pi_cms.Cloud.deploy_pod cloud ~tenant:"mallory" ~name:"blog"
      ~labels:[ "app=blog" ] ~server:"server-1" ~ip:(ip "10.1.0.3") ()
  in
  Printf.printf "cloud: %s and %s share server-1's hypervisor switch\n\n"
    victim.Pi_cms.Cloud.pod_name attacker_pod.Pi_cms.Cloud.pod_name;

  (* Mallory's NetworkPolicy: looks like textbook microsegmentation. *)
  let spec =
    Policy_gen.default_spec ~variant:Variant.Src_dport
      ~allow_src:(ip "10.0.0.10") ()
  in
  let policy = Policy_gen.k8s_policy ~pod_selector:"app=blog" spec in
  Format.printf "mallory applies: %a@." Pi_cms.K8s_policy.pp policy;
  (match Pi_cms.Cloud.apply_k8s_policy cloud ~tenant:"mallory" policy with
   | Ok n -> Printf.printf "CMS accepted it; %d pod(s) programmed\n\n" n
   | Error e -> failwith e);

  (* Prediction vs reality. *)
  Printf.printf "predicted megaflow masks: %d (32 src depths x 16 dport depths)\n"
    (Predict.variant_masks Variant.Src_dport);
  let gen = Packet_gen.make ~spec ~dst:attacker_pod.Pi_cms.Cloud.ip () in
  let flows = Packet_gen.flows gen in
  Printf.printf "covert sequence: %d packets, %.2f Mbit per round\n"
    (List.length flows)
    (float_of_int (List.length flows * 100 * 8) /. 1e6);
  List.iter
    (fun f ->
      let f = Pi_classifier.Flow.with_field f Pi_classifier.Field.In_port 1 in
      ignore (Pi_cms.Cloud.process cloud ~now:0. ~server:"server-1" f ~pkt_len:100))
    flows;
  let dp = Pi_cms.Cloud.dataplane_exn cloud "server-1" in
  Printf.printf "measured megaflow masks:  %d\n\n"
    (Pi_ovs.Dataplane.stats dp).Pi_ovs.Dataplane.masks;

  (* The victim pays for it: probe with a fresh client flow. *)
  let client =
    Pi_classifier.Flow.make ~in_port:1 ~ip_src:(ip "10.77.1.9")
      ~ip_dst:victim.Pi_cms.Cloud.ip ~ip_proto:6 ~tp_src:40000 ~tp_dst:80 ()
  in
  let _, o = Pi_cms.Cloud.process cloud ~now:0.1 ~server:"server-1" client ~pkt_len:1500 in
  let cost = Pi_ovs.Cost_model.cycles Pi_ovs.Cost_model.default o in
  Printf.printf
    "a victim client flow now costs %.0f cycles (%d subtable probes);\n\
     before the attack the same lookup took ~3 probes.\n"
    cost o.Pi_ovs.Cost_model.mf_probes;
  Printf.printf
    "\nNote: server-2 is untouched — the blast radius is the shared host.\n"
