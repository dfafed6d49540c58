(** The typed abstract syntax of [.pis] ("policy-injection scenario")
    programs, with source locations on every node a diagnostic may need
    to point at.

    A program is a [scenario NAME] header followed by blocks of four
    kinds — {b topology} (servers, ports, tenants), {b policy} (a
    CMS-dialect whitelist ACL per tenant), {b traffic} (the benign mix
    and the covert attack stream) and {b run} (backend knobs plus
    assertions that make the file a self-checking regression). The
    parser builds exactly this tree; {!Validate} resolves names and
    ranges, {!Interp} lowers the result onto {!Pi_sim.Scenario}.

    Structural equality ({!equal_program} and friends) ignores
    locations, so the parser/pretty-printer round-trip property
    [parse (pp p) = p] is well-defined for generated trees. *)

type 'a loc = { v : 'a; at : Loc.t }

val at : Loc.t -> 'a -> 'a loc
val dummy : 'a -> 'a loc

(** {2 Topology} *)

type server = { s_name : string loc; s_uplink : int loc }
type tenant = { t_name : string loc; t_port : int loc }

type topo_item =
  | Server of server
  | Tenant of tenant
  | Services of int loc  (** background pods sharing the host *)

type topology = topo_item list

(** {2 Policies} *)

type dialect = K8s | Security_group | Calico

type proto = P_any | P_tcp | P_udp | P_icmp

type ports = Any_port | Port of int | Range of int * int

type clause =
  | Src of Pi_pkt.Ipv4_addr.Prefix.t loc
  | Proto of proto loc
  | Sport of ports loc
  | Dport of ports loc

type rule =
  | Allow of clause list
  | Deny_all  (** the explicit default-deny line ([deny all]) *)

type policy = {
  p_name : string loc;
  p_dialect : dialect loc option;
  p_tenant : string loc option;
  p_rules : rule loc list;  (** in source order *)
}

(** {2 Traffic} *)

type victim = {
  v_tenant : string loc option;
  v_offered_gbps : float loc option;
  v_pkt_len : int loc option;
  v_flows : int loc option;
  v_churn : float loc option;
  v_samples_per_tick : int loc option;
}

type attack = {
  a_policy : string loc option;  (** the injected whitelist, by name *)
  a_start : float loc option;
  a_stop : float loc option;
  a_refresh : float loc option;
  a_pkt_len : int loc option;
  a_exact_per_tick : int loc option;
}

type traffic = {
  tr_seed : int loc option;
  tr_duration : float loc option;
  tr_tick : float loc option;
  tr_victim : victim loc option;
  tr_attack : attack loc option;
}

(** {2 Runs and assertions} *)

type backend = Pmd | Cacheless

type cmp = Le | Ge | Lt | Gt | Eq

type assertion = {
  as_metric : string loc;  (** resolved by {!Validate} *)
  as_cmp : cmp;
  as_value : float loc;
}

type run = {
  r_name : string loc;
  r_backend : backend loc option;
  r_shards : int loc option;
  r_batch : int loc option;
  r_upcall_queue : int loc option;
  r_mask_limit : int loc option;
  r_coarsen : int loc option;  (** un-wildcarding granularity, bits *)
  r_emc : bool loc option;
  r_assert : assertion list loc option;
}

(** {2 Programs} *)

type block =
  | Topology of topology loc
  | Policy of policy loc
  | Traffic of traffic loc
  | Run of run loc

type program = { name : string loc; blocks : block list }

val empty_victim : victim
val empty_attack : attack
val empty_traffic : traffic
val empty_policy : string loc -> policy
val empty_run : string loc -> run

(** {2 Names} *)

val dialect_name : dialect -> string
val dialect_of_name : string -> dialect option
val proto_name : proto -> string
val proto_of_name : string -> proto option
val backend_name : backend -> string
val backend_of_name : string -> backend option
val cmp_name : cmp -> string

(** {2 Location-insensitive equality} *)

val equal_program : program -> program -> bool
