(* Fleet-wide blast radius: the paper's Fig. 1 marks the attacker's ACLs
   at her virtual ports on BOTH servers. A tenant with pods spread
   across the fleet degrades every host it touches, with one covert
   stream per host — all through the ordinary management plane.

   This example drives the high-level orchestration API
   (Policy_injection.Attack.launch) end to end, including cross-server
   delivery over the fabric.

   Run with: dune exec examples/fleet_attack.exe *)

open Policy_injection

let ip = Pi_pkt.Ipv4_addr.of_string

let () =
  let n_servers = 3 in
  let cloud =
    Pi_cms.Cloud.create ~flavour:Pi_cms.Cloud.Kubernetes_calico ~seed:13L
      ~n_servers ()
  in
  (* The victim runs a service on server-1... *)
  let victim =
    Pi_cms.Cloud.deploy_pod cloud ~tenant:"acme" ~name:"api"
      ~labels:[ "app=api" ] ~server:"server-1" ~ip:(ip "10.1.0.2") ()
  in
  (match
     Pi_cms.Cloud.apply_acl cloud ~pod:victim ~tenant:"acme"
       (Pi_cms.Acl.whitelist
          [ Pi_cms.Acl.entry ~src:(Pi_pkt.Ipv4_addr.Prefix.of_string "10.0.0.0/8") () ])
   with
   | Ok () -> ()
   | Error e -> failwith e);
  (* ...and a client on server-3 that talks to it across the fabric. *)
  let client =
    Pi_cms.Cloud.deploy_pod cloud ~tenant:"acme" ~name:"worker"
      ~server:"server-3" ~ip:(ip "10.3.0.2") ()
  in

  (* Mallory deploys one pod per server and launches the attack on each. *)
  Printf.printf "mallory deploys a pod on each of the %d servers and attacks:\n" n_servers;
  List.iteri
    (fun i server ->
      let pod =
        Pi_cms.Cloud.deploy_pod cloud ~tenant:"mallory"
          ~name:(Printf.sprintf "covert-%d" i) ~server
          ~ip:(Pi_pkt.Ipv4_addr.add (ip "10.200.0.1") i) ()
      in
      match
        Attack.launch ~cloud ~tenant:"mallory" ~pod
          ~variant:Variant.Src_dport ~refresh_period:5. ~start:0. ~stop:5. ()
      with
      | Ok t ->
        let (_ : (float * Pi_classifier.Flow.t) Seq.t) =
          Attack.feed t cloud ~upto:5. (Campaign.events t.Attack.campaign)
        in
        let dp = Pi_cms.Cloud.dataplane_exn cloud server in
        Printf.printf "  %s: %d megaflow masks (expected %d)\n" server
          (Pi_ovs.Dataplane.stats dp).Pi_ovs.Dataplane.masks
          (Attack.expected_masks t)
      | Error e -> Format.printf "  %s: launch failed: %a@." server Attack.pp_error e)
    (Pi_cms.Cloud.servers cloud);

  (* The victim's cross-fabric request now pays the inflated caches on
     BOTH hypervisors it crosses. *)
  let flow =
    Pi_classifier.Flow.make ~ip_src:client.Pi_cms.Cloud.ip
      ~ip_dst:victim.Pi_cms.Cloud.ip ~ip_proto:6 ~tp_src:38000 ~tp_dst:443 ()
  in
  let hops = Pi_cms.Cloud.deliver cloud ~now:6. ~src_pod:client flow ~pkt_len:300 in
  Printf.printf "\nworker (server-3) -> api (server-1), per-hop classification cost:\n";
  List.iter
    (fun h ->
      Printf.printf "  %s: %s after %d subtable probes (%.0f cycles)\n"
        h.Pi_cms.Cloud.hop_server
        (Pi_ovs.Action.to_string h.Pi_cms.Cloud.hop_action)
        h.Pi_cms.Cloud.hop_outcome.Pi_ovs.Cost_model.mf_probes
        (Pi_ovs.Cost_model.cycles Pi_ovs.Cost_model.default
           h.Pi_cms.Cloud.hop_outcome))
    hops;
  Printf.printf
    "\none tenant, %d covert streams of ~0.1 Mb/s each: every hypervisor in\n\
     the fleet that hosts one of its pods is degraded simultaneously.\n"
    n_servers;

  (* Multi-queue hosts fare no better: on a server running several PMD
     threads, RSS spreads the covert flows across every core, so each
     PMD's private megaflow cache inflates on its own. *)
  let spec =
    Policy_injection.Policy_gen.default_spec ~variant:Variant.Src_dport
      ~allow_src:(ip "10.0.0.10") ()
  in
  let backend =
    Pi_ovs.Dataplane.pmd
      ~config:{ Pi_ovs.Pmd.default_config with Pi_ovs.Pmd.n_shards = 4 }
      ()
  in
  let pmd = Pi_ovs.Dataplane.create backend (Pi_pkt.Prng.create 7L) in
  Pi_ovs.Dataplane.install_rules pmd
    (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2)
       (Policy_injection.Policy_gen.acl spec));
  let covert =
    Policy_injection.Packet_gen.flows ~seed:7L
      (Policy_injection.Packet_gen.make ~spec ~dst:(ip "10.200.0.1") ())
    |> List.map (fun f -> (f, 100))
    |> Array.of_list
  in
  ignore (Pi_ovs.Dataplane.process_burst pmd ~now:0. covert);
  Printf.printf
    "\na 4-PMD host after one covert round (one mask set per core):\n";
  Array.iteri
    (fun i m -> Printf.printf "  pmd-%d: %d megaflow masks\n" i m)
    (Pi_ovs.Dataplane.shard_masks pmd);
  Printf.printf "  total: %d masks on the %S backend\n"
    (Pi_ovs.Dataplane.stats pmd).Pi_ovs.Dataplane.masks
    (Pi_ovs.Dataplane.name pmd)
