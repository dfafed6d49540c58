(* The OpenStack flavour: the same attack expressed as a Neutron
   security group (remote_ip_prefix + port range), showing that the
   paper's technique is CMS-agnostic — and also what a *benign* security
   group with a port range compiles to.

   Run with: dune exec examples/openstack_sg.exe *)

open Policy_injection

let ip = Pi_pkt.Ipv4_addr.of_string
let pfx = Pi_pkt.Ipv4_addr.Prefix.of_string

let () =
  let cloud =
    Pi_cms.Cloud.create ~flavour:Pi_cms.Cloud.Openstack ~seed:3L ~n_servers:1 ()
  in
  let vm =
    Pi_cms.Cloud.deploy_pod cloud ~tenant:"mallory" ~name:"vm-1"
      ~server:"server-1" ~ip:(ip "10.1.0.3") ()
  in

  (* A benign-looking security group with a port range: Neutron accepts
     ranges, and the compiler decomposes them into prefix rules. *)
  let benign =
    Pi_cms.Openstack_sg.make ~name:"app-servers"
      ~rules:
        [ Pi_cms.Openstack_sg.rule ~protocol:Pi_cms.Acl.Tcp
            ~remote_ip_prefix:(pfx "10.0.0.0/8") ~port_range_min:8000
            ~port_range_max:8999 () ]
  in
  let acl = Pi_cms.Openstack_sg.to_acl Pi_cms.Openstack_sg.Ingress benign in
  let rules = Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2) acl in
  Printf.printf "security group %s compiles to %d flow rules\n"
    "app-servers" (List.length rules);
  Printf.printf "(port range 8000-8999 decomposes into %d prefixes)\n\n"
    (List.length (Pi_cms.Compile.range_prefixes 8000 8999));

  (* The malicious group: src + exact dport, same as the k8s variant. *)
  let spec =
    Policy_gen.default_spec ~variant:Variant.Src_dport
      ~allow_src:(ip "10.0.0.10") ()
  in
  let sg = Policy_gen.security_group spec in
  Format.printf "mallory applies %a to her own VM@." Pi_cms.Openstack_sg.pp sg;
  (match Pi_cms.Cloud.apply_security_group cloud ~tenant:"mallory" ~pod:vm sg with
   | Ok () -> print_endline "Neutron accepted it (it is a valid security group)"
   | Error e -> failwith e);

  let gen = Packet_gen.make ~spec ~dst:vm.Pi_cms.Cloud.ip () in
  List.iter
    (fun f ->
      let f = Pi_classifier.Flow.with_field f Pi_classifier.Field.In_port 1 in
      ignore (Pi_cms.Cloud.process cloud ~now:0. ~server:"server-1" f ~pkt_len:100))
    (Packet_gen.flows gen);
  let dp = Pi_cms.Cloud.dataplane_exn cloud "server-1" in
  Printf.printf "megaflow masks after one covert round: %d (predicted %d)\n"
    (Pi_ovs.Dataplane.stats dp).Pi_ovs.Dataplane.masks
    (Predict.variant_masks Variant.Src_dport);

  (* What OpenStack *cannot* express saves it from the worst variant. *)
  match Policy_gen.security_group { spec with Policy_gen.variant = Variant.Src_sport_dport } with
  | exception Invalid_argument _ ->
    print_endline
      "source-port filtering is not expressible in a security group, so the\n\
       8192-mask variant needs a CMS like Calico (see calico_dos.exe)"
  | _ -> assert false
