open Pi_cms
open Pi_classifier
open Helpers

let mk ?(flavour = Cloud.Kubernetes) () =
  let cloud = Cloud.create ~flavour ~seed:11L ~n_servers:2 () in
  let victim =
    Cloud.deploy_pod cloud ~tenant:"acme" ~name:"web-1" ~labels:[ "app=web" ]
      ~server:"server-1" ~ip:(ip "10.1.0.2") ()
  in
  let attacker =
    Cloud.deploy_pod cloud ~tenant:"mallory" ~name:"covert-1"
      ~labels:[ "app=covert" ] ~server:"server-1" ~ip:(ip "10.1.0.3") ()
  in
  (cloud, victim, attacker)

let web_policy =
  K8s_policy.make ~name:"allow-clients" ~pod_selector:"app=web"
    ~ingress:
      [ { K8s_policy.from =
            [ K8s_policy.Ip_block { K8s_policy.cidr = pfx "10.0.0.0/8"; except = [] } ];
          ports = [] } ]

let test_topology () =
  let cloud, victim, attacker = mk () in
  Alcotest.(check (list string)) "servers" [ "server-1"; "server-2" ]
    (Cloud.servers cloud);
  Alcotest.(check int) "two pods" 2 (List.length (Cloud.pods cloud));
  Alcotest.(check (list int)) "dense port ids after uplink 1" [ 2; 3 ]
    [ victim.Cloud.port; attacker.Cloud.port ]

let test_deploy_order () =
  let cloud = Cloud.create ~seed:11L ~n_servers:2 () in
  let deploy name server addr =
    Cloud.deploy_pod cloud ~tenant:"acme" ~name ~server ~ip:(ip addr) ()
  in
  let a = deploy "a" "server-1" "10.1.0.2" in
  let b = deploy "b" "server-2" "10.2.0.2" in
  let c = deploy "c" "server-1" "10.1.0.3" in
  Alcotest.(check (list string)) "pods in creation order" [ "a"; "b"; "c" ]
    (List.map (fun p -> p.Cloud.pod_name) (Cloud.pods cloud));
  Alcotest.(check (list int)) "server-1 ports" [ 2; 3 ]
    [ a.Cloud.port; c.Cloud.port ];
  Alcotest.(check int) "server-2 port" 2 b.Cloud.port

let test_duplicate_pod_rejected () =
  let cloud, _, _ = mk () in
  match
    Cloud.deploy_pod cloud ~tenant:"x" ~name:"web-1" ~server:"server-2"
      ~ip:(ip "10.2.0.9") ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate pod name accepted"

let test_resolve_selector () =
  let cloud, victim, _ = mk () in
  Alcotest.(check (list prefix_t)) "resolves to pod /32"
    [ Pi_pkt.Ipv4_addr.Prefix.make victim.Cloud.ip 32 ]
    (Cloud.resolve_selector cloud "app=web")

let test_ownership_enforced () =
  let cloud, victim, _ = mk () in
  match Cloud.apply_acl cloud ~pod:victim ~tenant:"mallory" Acl.allow_all with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "foreign tenant modified a pod policy"

let test_flavour_gating () =
  let cloud, _, attacker = mk () in
  (match
     Cloud.apply_security_group cloud ~tenant:"mallory" ~pod:attacker
       (Openstack_sg.make ~name:"sg" ~rules:[])
   with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "security group on a k8s cloud");
  let calico =
    Calico_policy.make ~name:"p" ~selector:"app=covert" ~ingress:[] ()
  in
  (match Cloud.apply_calico_policy cloud ~tenant:"mallory" calico with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "calico policy without the calico plugin");
  let calico_cloud, _, _ = mk ~flavour:Cloud.Kubernetes_calico () in
  match Cloud.apply_calico_policy calico_cloud ~tenant:"mallory" calico with
  | Ok n -> Alcotest.(check int) "applied to own pod" 1 n
  | Error e -> Alcotest.fail e

let test_policy_enforced_end_to_end () =
  let cloud, victim, _ = mk () in
  (match Cloud.apply_k8s_policy cloud ~tenant:"acme" web_policy with
   | Ok n -> Alcotest.(check int) "one pod programmed" 1 n
   | Error e -> Alcotest.fail e);
  let allowed =
    Flow.make ~in_port:1 ~ip_src:(ip "10.9.9.9") ~ip_dst:victim.Cloud.ip
      ~ip_proto:6 ~tp_src:1234 ~tp_dst:80 ()
  in
  let denied = Flow.with_field allowed Field.Ip_src 0x0B000001 (* 11.0.0.1 *) in
  let a1, _ = Cloud.process cloud ~now:0. ~server:"server-1" allowed ~pkt_len:100 in
  let a2, _ = Cloud.process cloud ~now:0. ~server:"server-1" denied ~pkt_len:100 in
  Alcotest.(check action_t) "allowed forwarded"
    (Pi_ovs.Action.Output victim.Cloud.port) a1;
  Alcotest.(check action_t) "denied dropped" Pi_ovs.Action.Drop a2

let test_policy_replacement () =
  let cloud, victim, _ = mk () in
  (match Cloud.apply_k8s_policy cloud ~tenant:"acme" web_policy with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  (* Replace with a deny-all policy; the old allow must be gone. *)
  let deny_all = K8s_policy.make ~name:"lockdown" ~pod_selector:"app=web" ~ingress:[] in
  (match Cloud.apply_k8s_policy cloud ~tenant:"acme" deny_all with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let flow =
    Flow.make ~in_port:1 ~ip_src:(ip "10.9.9.9") ~ip_dst:victim.Cloud.ip
      ~ip_proto:6 ~tp_dst:80 ()
  in
  let a, _ = Cloud.process cloud ~now:0. ~server:"server-1" flow ~pkt_len:100 in
  Alcotest.(check action_t) "now denied" Pi_ovs.Action.Drop a

let test_unknown_server () =
  let cloud, _, _ = mk () in
  match Cloud.dataplane_exn cloud "server-99" with
  | exception Cloud.Unknown_server "server-99" -> ()
  | _ -> Alcotest.fail "unknown server should raise"

let test_revalidate_all () =
  let cloud, victim, _ = mk () in
  (match Cloud.apply_k8s_policy cloud ~tenant:"acme" web_policy with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let flow =
    Flow.make ~in_port:1 ~ip_src:(ip "10.9.9.9") ~ip_dst:victim.Cloud.ip () in
  ignore (Cloud.process cloud ~now:0. ~server:"server-1" flow ~pkt_len:100);
  Alcotest.(check int) "idle flow evicted everywhere" 1
    (Cloud.revalidate_all cloud ~now:1000.)

(* --- fabric delivery --- *)

let mk_two_servers () =
  let cloud = Cloud.create ~flavour:Cloud.Kubernetes ~seed:12L ~n_servers:2 () in
  let web =
    Cloud.deploy_pod cloud ~tenant:"acme" ~name:"web" ~labels:[ "app=web" ]
      ~server:"server-1" ~ip:(ip "10.1.0.2") ()
  in
  let db =
    Cloud.deploy_pod cloud ~tenant:"acme" ~name:"db" ~labels:[ "app=db" ]
      ~server:"server-2" ~ip:(ip "10.2.0.2") ()
  in
  (cloud, web, db)

let flow_to ?(src = "10.1.0.2") dst =
  Flow.make ~ip_src:(ip src) ~ip_dst:(ip dst) ~ip_proto:6 ~tp_src:33000
    ~tp_dst:5432 ()

let test_deliver_cross_server () =
  let cloud, web, db = mk_two_servers () in
  (* db accepts only the web pod. *)
  let pol =
    K8s_policy.make ~name:"db-from-web" ~pod_selector:"app=db"
      ~ingress:[ { K8s_policy.from = [ K8s_policy.Pod_selector "app=web" ]; ports = [] } ]
  in
  (match Cloud.apply_k8s_policy cloud ~tenant:"acme" pol with
   | Ok 1 -> ()
   | Ok n -> Alcotest.failf "expected 1 pod, got %d" n
   | Error e -> Alcotest.fail e);
  let hops = Cloud.deliver cloud ~now:0. ~src_pod:web (flow_to "10.2.0.2") ~pkt_len:200 in
  Alcotest.(check int) "two hops" 2 (List.length hops);
  (match hops with
   | [ h1; h2 ] ->
     Alcotest.(check string) "first hop at source" "server-1" h1.Cloud.hop_server;
     Alcotest.(check action_t) "takes the uplink" (Pi_ovs.Action.Output 1)
       h1.Cloud.hop_action;
     Alcotest.(check string) "second hop at destination" "server-2" h2.Cloud.hop_server;
     Alcotest.(check action_t) "delivered to the pod"
       (Pi_ovs.Action.Output db.Cloud.port) h2.Cloud.hop_action
   | _ -> Alcotest.fail "unexpected hop shape");
  (* A stranger source is dropped at the destination hypervisor. *)
  let hops' =
    Cloud.deliver cloud ~now:0. ~src_pod:web (flow_to ~src:"9.9.9.9" "10.2.0.2")
      ~pkt_len:200
  in
  match List.rev hops' with
  | last :: _ ->
    Alcotest.(check action_t) "denied at destination" Pi_ovs.Action.Drop
      last.Cloud.hop_action
  | [] -> Alcotest.fail "no hops"

let test_deliver_same_server () =
  let cloud, web, _ = mk_two_servers () in
  let api =
    Cloud.deploy_pod cloud ~tenant:"acme" ~name:"api" ~server:"server-1"
      ~ip:(ip "10.1.0.9") ()
  in
  (match Cloud.apply_acl cloud ~pod:api ~tenant:"acme" Acl.allow_all with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let hops = Cloud.deliver cloud ~now:0. ~src_pod:web (flow_to "10.1.0.9") ~pkt_len:200 in
  Alcotest.(check int) "one hop, same host" 1 (List.length hops);
  match hops with
  | [ h ] ->
    Alcotest.(check action_t) "delivered locally"
      (Pi_ovs.Action.Output api.Cloud.port) h.Cloud.hop_action
  | _ -> Alcotest.fail "unexpected"

(* Addresses no pod owns, one of them next to the remote pod's: the
   packet leaves through the uplink and no second hop is made. *)
let test_deliver_unknown_dst_takes_uplink () =
  let cloud, web, _ = mk_two_servers () in
  List.iter
    (fun dst ->
      match Cloud.deliver cloud ~now:0. ~src_pod:web (flow_to dst) ~pkt_len:200 with
      | [ h ] ->
        Alcotest.(check action_t) (dst ^ " leaves via the uplink")
          (Pi_ovs.Action.Output 1) h.Cloud.hop_action
      | hops ->
        Alcotest.failf "%s: expected a single hop, got %d" dst (List.length hops))
    [ "8.8.8.8"; "10.2.0.3" ]

(* A second pod at an address already in use is rejected, with both
   pods named, and leaves no trace: the address still reaches the first
   pod, and the name stays free. *)
let test_duplicate_ip_rejected () =
  let cloud, web, db = mk_two_servers () in
  (match Cloud.apply_acl cloud ~pod:db ~tenant:"acme" Acl.allow_all with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match
     Cloud.deploy_pod cloud ~tenant:"acme" ~name:"db-twin" ~server:"server-1"
       ~ip:db.Cloud.ip ()
   with
   | exception Invalid_argument msg ->
     Alcotest.(check string) "names both pods"
       "Cloud.deploy_pod: pod db-twin cannot take 10.2.0.2 from pod db" msg
   | _ -> Alcotest.fail "duplicate pod ip accepted");
  Alcotest.(check (option string)) "name left free" None
    (Option.map (fun p -> p.Cloud.pod_name) (Cloud.pod cloud "db-twin"));
  Alcotest.(check int) "server-1 port not taken" 3
    (Cloud.deploy_pod cloud ~tenant:"acme" ~name:"cache" ~server:"server-1"
       ~ip:(ip "10.1.0.9") ()).Cloud.port;
  match Cloud.deliver cloud ~now:0. ~src_pod:web (flow_to "10.2.0.2") ~pkt_len:200 with
  | [ _; h2 ] ->
    Alcotest.(check action_t) "delivered to the first pod"
      (Pi_ovs.Action.Output db.Cloud.port) h2.Cloud.hop_action
  | hops -> Alcotest.failf "expected two hops, got %d" (List.length hops)

let suite =
  [ Alcotest.test_case "topology" `Quick test_topology;
    Alcotest.test_case "deploy order and port ids" `Quick test_deploy_order;
    Alcotest.test_case "duplicate pod rejected" `Quick test_duplicate_pod_rejected;
    Alcotest.test_case "resolve selector" `Quick test_resolve_selector;
    Alcotest.test_case "ownership enforced" `Quick test_ownership_enforced;
    Alcotest.test_case "flavour gating" `Quick test_flavour_gating;
    Alcotest.test_case "policy enforced end to end" `Quick test_policy_enforced_end_to_end;
    Alcotest.test_case "policy replacement" `Quick test_policy_replacement;
    Alcotest.test_case "unknown server" `Quick test_unknown_server;
    Alcotest.test_case "revalidate all" `Quick test_revalidate_all;
    Alcotest.test_case "deliver across the fabric" `Quick test_deliver_cross_server;
    Alcotest.test_case "deliver on the same host" `Quick test_deliver_same_server;
    Alcotest.test_case "unknown destination takes uplink" `Quick
      test_deliver_unknown_dst_takes_uplink;
    Alcotest.test_case "duplicate pod ip rejected" `Quick
      test_duplicate_ip_rejected ]
