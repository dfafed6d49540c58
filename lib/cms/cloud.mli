(** The cloud: servers running hypervisor dataplanes, tenant pods
    attached to virtual ports, and the management API through which
    tenants deploy pods and inject network policies — the paper's Fig. 1
    test setup.

    Each server has one {!Pi_ovs.Dataplane.t} that every local port
    feeds, so its flow cache (and thus the attack surface) is shared by
    all tenants on the host: a tenant's malicious ACL degrades every
    other tenant on the same server.

    The management plane performs the CMS's (limited) validation: a
    tenant may only attach policies to its own pods, and only policy
    types the chosen CMS flavour supports. This is the point the paper
    makes: all of these policies look perfectly legitimate to the CMS,
    yet they arm the dataplane DoS. *)

type flavour =
  | Kubernetes      (** NetworkPolicy: src IP + dst port *)
  | Openstack       (** security groups: src CIDR + dst port range *)
  | Kubernetes_calico  (** Calico: + src port — the full-DoS enabler *)

type pod = {
  pod_name : string;
  tenant : string;
  ip : Pi_pkt.Ipv4_addr.t;
  server : string;
  port : int;
      (** The pod's port on its server. Port ids are dense per server:
          1 is the fabric uplink, pods get 2, 3, ... in deploy order. *)
  mutable labels : string list;
}

type t

exception Unknown_server of string
(** Raised by {!dataplane_exn} for a server name not in {!servers}. *)

val create :
  ?flavour:flavour -> seed:int64 -> n_servers:int -> unit -> t
(** Every server runs its own {!Pi_ovs.Dataplane.pmd} [()]: one PMD
    shard with the default datapath and classifier configuration. *)

val flavour : t -> flavour

val servers : t -> string list

val dataplane_exn : t -> string -> Pi_ovs.Dataplane.t
(** The server's dataplane — use {!Pi_ovs.Dataplane.stats} and friends
    for its cache state. Raises {!Unknown_server} for an unknown server
    name. *)

val deploy_pod :
  t -> tenant:string -> name:string -> ?labels:string list ->
  server:string -> ip:Pi_pkt.Ipv4_addr.t -> unit -> pod
(** Deploy a pod on the next port of [server].
    @raise Invalid_argument if a pod of that name exists, or a pod
    already holds [ip] (the message names both pods): an address
    reaches one pod. *)

val pod : t -> string -> pod option

val pods : t -> pod list
(** In deploy order. *)

val pods_by_label : t -> string -> pod list

val resolve_selector : t -> string -> Pi_pkt.Ipv4_addr.Prefix.t list
(** Pod-IP /32 prefixes of the pods carrying the label. *)

val apply_acl : t -> pod:pod -> tenant:string -> Acl.t -> (unit, string) result
(** Install the whitelist ACL as the pod's ingress policy (compiled and
    pushed into the pod's server dataplane). Fails if [tenant] does not own
    the pod. Replaces any previous policy of the pod. *)

val apply_k8s_policy :
  t -> tenant:string -> K8s_policy.t -> (int, string) result
(** Apply to every owned pod selected by the policy; returns the number
    of pods programmed. Fails on non-Kubernetes clouds. *)

val apply_security_group :
  t -> tenant:string -> pod:pod -> Openstack_sg.t -> (unit, string) result
(** Fails unless the cloud is OpenStack-flavoured. *)

val apply_calico_policy :
  t -> tenant:string -> Calico_policy.t -> (int, string) result
(** Fails unless the cloud runs Calico. *)

val process :
  t -> now:float -> server:string -> Pi_classifier.Flow.t -> pkt_len:int ->
  Pi_ovs.Action.t * Pi_ovs.Cost_model.outcome
(** Push one packet (as a flow key) through a server's dataplane. *)

type hop = {
  hop_server : string;
  hop_action : Pi_ovs.Action.t;
  hop_outcome : Pi_ovs.Cost_model.outcome;
}

val deliver :
  t -> now:float -> src_pod:pod -> Pi_classifier.Flow.t -> pkt_len:int ->
  hop list
(** Pod-to-pod delivery across the data-center fabric (Fig. 1): classify
    at the source pod's server (in at the pod's port; traffic to
    non-local destinations takes the uplink), then — when forwarded to a
    pod on another server — again at the destination server (in at its
    uplink), since both hypervisors run the shared flow caches. Returns
    the per-hop results, source first; the packet was delivered iff the
    last hop's action is an [Output] to the destination pod's port. *)

val revalidate_all : t -> now:float -> int
