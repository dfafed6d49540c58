let src = Logs.Src.create "pi.cloud" ~doc:"cloud management plane"

module Log = (val Logs.src_log src : Logs.LOG)

type flavour =
  | Kubernetes
  | Openstack
  | Kubernetes_calico

type pod = {
  pod_name : string;
  tenant : string;
  ip : Pi_pkt.Ipv4_addr.t;
  server : string;
  port : int;
  mutable labels : string list;
}

(* One hypervisor: the dataplane every local port feeds, and the id its
   next port gets. *)
type host = {
  dp : Pi_ovs.Dataplane.t;
  mutable next_port : int;
}

type t = {
  flavour : flavour;
  hosts : (string, host) Hashtbl.t;
  server_names : string list;
  pods_tbl : (string, pod) Hashtbl.t;
  pods_by_ip : (Pi_pkt.Ipv4_addr.t, pod) Hashtbl.t;
  mutable pods_rev : string list;  (* newest first: O(1) insert *)
}

exception Unknown_server of string

let uplink = 1

let () =
  Printexc.register_printer (function
    | Unknown_server s -> Some (Printf.sprintf "Pi_cms.Cloud.Unknown_server %S" s)
    | _ -> None)

let create ?(flavour = Kubernetes) ~seed ~n_servers () =
  if n_servers < 1 then invalid_arg "Cloud.create";
  let rng = Pi_pkt.Prng.create seed in
  let backend = Pi_ovs.Dataplane.pmd () in
  let hosts = Hashtbl.create 8 in
  let server_names =
    List.init n_servers (fun i -> Printf.sprintf "server-%d" (i + 1))
  in
  List.iter
    (fun name ->
      let dp = Pi_ovs.Dataplane.create backend (Pi_pkt.Prng.split rng) in
      (* Port 1 of every server is the fabric uplink; traffic that no
         local pod policy claims is forwarded there (lowest priority,
         below even the per-pod default-deny catch-alls). *)
      Pi_ovs.Dataplane.install_rules dp
        [ Pi_classifier.Rule.make ~priority:0
            ~pattern:Pi_classifier.Pattern.any
            ~action:(Pi_ovs.Action.Output uplink) () ];
      Hashtbl.replace hosts name { dp; next_port = uplink + 1 })
    server_names;
  { flavour; hosts; server_names; pods_tbl = Hashtbl.create 64;
    pods_by_ip = Hashtbl.create 64; pods_rev = [] }

let flavour t = t.flavour

let servers t = t.server_names

let host_exn t name =
  match Hashtbl.find_opt t.hosts name with
  | Some h -> h
  | None -> raise (Unknown_server name)

let dataplane_exn t name = (host_exn t name).dp

let deploy_pod t ~tenant ~name ?(labels = []) ~server ~ip () =
  if Hashtbl.mem t.pods_tbl name then
    invalid_arg (Printf.sprintf "Cloud.deploy_pod: pod %s exists" name);
  (match Hashtbl.find_opt t.pods_by_ip ip with
   | Some p ->
     invalid_arg
       (Format.asprintf "Cloud.deploy_pod: pod %s cannot take %a from pod %s"
          name Pi_pkt.Ipv4_addr.pp ip p.pod_name)
   | None -> ());
  let h = host_exn t server in
  let port = h.next_port in
  h.next_port <- port + 1;
  let p = { pod_name = name; tenant; ip; server; port; labels } in
  Hashtbl.replace t.pods_tbl name p;
  Hashtbl.replace t.pods_by_ip ip p;
  t.pods_rev <- name :: t.pods_rev;
  p

let pod t name = Hashtbl.find_opt t.pods_tbl name

let pods t = List.rev_map (Hashtbl.find t.pods_tbl) t.pods_rev

let pods_by_label t label =
  List.filter (fun p -> List.mem label p.labels) (pods t)

let resolve_selector t label =
  List.map
    (fun p -> Pi_pkt.Ipv4_addr.Prefix.make p.ip 32)
    (pods_by_label t label)

let apply_acl t ~pod ~tenant acl =
  if not (String.equal pod.tenant tenant) then
    Error (Printf.sprintf "tenant %s does not own pod %s" tenant pod.pod_name)
  else begin
    let dp = dataplane_exn t pod.server in
    let pod_ip = Int32.to_int pod.ip land 0xFFFFFFFF in
    (* Replace the pod's previous ingress policy: its rules are the ones
       pinned to the pod's address. *)
    ignore
      (Pi_ovs.Dataplane.remove_rules dp
         (fun r ->
           let p = r.Pi_classifier.Rule.pattern in
           Pi_classifier.Flow.get p.Pi_classifier.Pattern.key
             Pi_classifier.Field.Ip_dst
           = pod_ip
           && Pi_classifier.Mask.get p.Pi_classifier.Pattern.mask
                Pi_classifier.Field.Ip_dst
              = 0xFFFFFFFF));
    let rules =
      Compile.compile
        ~dst:(Pi_pkt.Ipv4_addr.Prefix.make pod.ip 32)
        ~allow:(Pi_ovs.Action.Output pod.port) acl
    in
    Pi_ovs.Dataplane.install_rules dp rules;
    Log.info (fun m ->
        m "tenant %s: installed %d flow rules at pod %s (%a)" tenant
          (List.length rules) pod.pod_name Pi_pkt.Ipv4_addr.pp pod.ip);
    Ok ()
  end

let owned_pods t tenant selector =
  List.filter (fun p -> String.equal p.tenant tenant) (pods_by_label t selector)

let apply_k8s_policy t ~tenant (pol : K8s_policy.t) =
  match t.flavour with
  | Openstack -> Error "NetworkPolicy is not available on an OpenStack cloud"
  | Kubernetes | Kubernetes_calico -> begin
    let acl = K8s_policy.to_acl ~resolve:(resolve_selector t) pol in
    let targets = owned_pods t tenant pol.K8s_policy.pod_selector in
    let rec go n = function
      | [] -> Ok n
      | p :: rest -> begin
        match apply_acl t ~pod:p ~tenant acl with
        | Ok () -> go (n + 1) rest
        | Error e -> Error e
      end
    in
    go 0 targets
  end

let apply_security_group t ~tenant ~pod (sg : Openstack_sg.t) =
  match t.flavour with
  | Openstack ->
    apply_acl t ~pod ~tenant (Openstack_sg.to_acl Openstack_sg.Ingress sg)
  | Kubernetes | Kubernetes_calico ->
    Error "security groups are not available on a Kubernetes cloud"

let apply_calico_policy t ~tenant (pol : Calico_policy.t) =
  match t.flavour with
  | Kubernetes_calico -> begin
    let acl = Calico_policy.to_acl pol in
    let targets = owned_pods t tenant pol.Calico_policy.selector in
    let rec go n = function
      | [] -> Ok n
      | p :: rest -> begin
        match apply_acl t ~pod:p ~tenant acl with
        | Ok () -> go (n + 1) rest
        | Error e -> Error e
      end
    in
    go 0 targets
  end
  | Kubernetes -> Error "Calico policy requires the Calico network plugin"
  | Openstack -> Error "Calico policy is not available on an OpenStack cloud"

let process t ~now ~server flow ~pkt_len =
  Pi_ovs.Dataplane.process (dataplane_exn t server) ~now flow ~pkt_len

type hop = {
  hop_server : string;
  hop_action : Pi_ovs.Action.t;
  hop_outcome : Pi_ovs.Cost_model.outcome;
}

let deliver t ~now ~src_pod flow ~pkt_len =
  let flow_at in_port =
    Pi_classifier.Flow.with_field flow Pi_classifier.Field.In_port in_port
  in
  let hop server in_port =
    let action, outcome =
      Pi_ovs.Dataplane.process (dataplane_exn t server) ~now (flow_at in_port)
        ~pkt_len
    in
    { hop_server = server; hop_action = action; hop_outcome = outcome }
  in
  let first = hop src_pod.server src_pod.port in
  match first.hop_action with
  | Pi_ovs.Action.Drop | Pi_ovs.Action.Controller -> [ first ]
  | Pi_ovs.Action.Output _ -> begin
    match Hashtbl.find_opt t.pods_by_ip (Pi_classifier.Flow.ip_dst flow) with
    | Some d when not (String.equal d.server src_pod.server) ->
      (* Cross the fabric; in at the destination server's uplink. *)
      [ first; hop d.server uplink ]
    | Some _ | None -> [ first ]
  end

let revalidate_all t ~now =
  Hashtbl.fold
    (fun _ h acc -> acc + Pi_ovs.Dataplane.revalidate h.dp ~now)
    t.hosts 0
