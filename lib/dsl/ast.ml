type 'a loc = { v : 'a; at : Loc.t }

let at at v = { v; at }
let dummy v = { v; at = Loc.dummy }

type server = { s_name : string loc; s_uplink : int loc }
type tenant = { t_name : string loc; t_port : int loc }

type topo_item =
  | Server of server
  | Tenant of tenant
  | Services of int loc

type topology = topo_item list

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
  | Deny_all

type policy = {
  p_name : string loc;
  p_dialect : dialect loc option;
  p_tenant : string loc option;
  p_rules : rule loc list;
}

type victim = {
  v_tenant : string loc option;
  v_offered_gbps : float loc option;
  v_pkt_len : int loc option;
  v_flows : int loc option;
  v_churn : float loc option;
  v_samples_per_tick : int loc option;
}

type attack = {
  a_policy : string loc option;
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

type backend = Pmd | Cacheless

type cmp = Le | Ge | Lt | Gt | Eq

type assertion = {
  as_metric : string loc;
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
  r_coarsen : int loc option;
  r_emc : bool loc option;
  r_assert : assertion list loc option;
}

type block =
  | Topology of topology loc
  | Policy of policy loc
  | Traffic of traffic loc
  | Run of run loc

type program = { name : string loc; blocks : block list }

let empty_victim =
  { v_tenant = None; v_offered_gbps = None; v_pkt_len = None; v_flows = None;
    v_churn = None; v_samples_per_tick = None }

let empty_attack =
  { a_policy = None; a_start = None; a_stop = None; a_refresh = None;
    a_pkt_len = None; a_exact_per_tick = None }

let empty_traffic =
  { tr_seed = None; tr_duration = None; tr_tick = None; tr_victim = None;
    tr_attack = None }

let empty_policy p_name =
  { p_name; p_dialect = None; p_tenant = None; p_rules = [] }

let empty_run r_name =
  { r_name; r_backend = None; r_shards = None; r_batch = None;
    r_upcall_queue = None; r_mask_limit = None; r_coarsen = None;
    r_emc = None; r_assert = None }

let dialect_name = function
  | K8s -> "k8s"
  | Security_group -> "security_group"
  | Calico -> "calico"

let dialect_of_name = function
  | "k8s" -> Some K8s
  | "security_group" -> Some Security_group
  | "calico" -> Some Calico
  | _ -> None

let proto_name = function
  | P_any -> "any"
  | P_tcp -> "tcp"
  | P_udp -> "udp"
  | P_icmp -> "icmp"

let proto_of_name = function
  | "any" -> Some P_any
  | "tcp" -> Some P_tcp
  | "udp" -> Some P_udp
  | "icmp" -> Some P_icmp
  | _ -> None

let backend_name = function
  | Pmd -> "pmd"
  | Cacheless -> "cacheless"

let backend_of_name = function
  | "pmd" -> Some Pmd
  | "cacheless" -> Some Cacheless
  | _ -> None

let cmp_name = function
  | Le -> "<="
  | Ge -> ">="
  | Lt -> "<"
  | Gt -> ">"
  | Eq -> "=="

(* --- location-insensitive equality --- *)

let eq_loc eq a b = eq a.v b.v

let eq_opt eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> eq a b
  | _ -> false

let eq_list eq a b =
  List.length a = List.length b && List.for_all2 eq a b

let eq_string (a : string) b = String.equal a b
let eq_int (a : int) b = a = b
let eq_float (a : float) b = Float.equal a b
let eq_bool (a : bool) b = a = b

let eq_topo_item a b =
  match (a, b) with
  | Server a, Server b ->
    eq_loc eq_string a.s_name b.s_name && eq_loc eq_int a.s_uplink b.s_uplink
  | Tenant a, Tenant b ->
    eq_loc eq_string a.t_name b.t_name && eq_loc eq_int a.t_port b.t_port
  | Services a, Services b -> eq_loc eq_int a b
  | _ -> false

let eq_ports (a : ports) b = a = b

let eq_clause a b =
  match (a, b) with
  | Src a, Src b -> eq_loc Pi_pkt.Ipv4_addr.Prefix.equal a b
  | Proto a, Proto b -> eq_loc (fun (x : proto) y -> x = y) a b
  | Sport a, Sport b | Dport a, Dport b -> eq_loc eq_ports a b
  | _ -> false

let eq_rule a b =
  match (a, b) with
  | Allow a, Allow b -> eq_list eq_clause a b
  | Deny_all, Deny_all -> true
  | _ -> false

let eq_policy a b =
  eq_loc eq_string a.p_name b.p_name
  && eq_opt (eq_loc (fun (x : dialect) y -> x = y)) a.p_dialect b.p_dialect
  && eq_opt (eq_loc eq_string) a.p_tenant b.p_tenant
  && eq_list (eq_loc eq_rule) a.p_rules b.p_rules

let eq_victim a b =
  eq_opt (eq_loc eq_string) a.v_tenant b.v_tenant
  && eq_opt (eq_loc eq_float) a.v_offered_gbps b.v_offered_gbps
  && eq_opt (eq_loc eq_int) a.v_pkt_len b.v_pkt_len
  && eq_opt (eq_loc eq_int) a.v_flows b.v_flows
  && eq_opt (eq_loc eq_float) a.v_churn b.v_churn
  && eq_opt (eq_loc eq_int) a.v_samples_per_tick b.v_samples_per_tick

let eq_attack a b =
  eq_opt (eq_loc eq_string) a.a_policy b.a_policy
  && eq_opt (eq_loc eq_float) a.a_start b.a_start
  && eq_opt (eq_loc eq_float) a.a_stop b.a_stop
  && eq_opt (eq_loc eq_float) a.a_refresh b.a_refresh
  && eq_opt (eq_loc eq_int) a.a_pkt_len b.a_pkt_len
  && eq_opt (eq_loc eq_int) a.a_exact_per_tick b.a_exact_per_tick

let eq_traffic a b =
  eq_opt (eq_loc eq_int) a.tr_seed b.tr_seed
  && eq_opt (eq_loc eq_float) a.tr_duration b.tr_duration
  && eq_opt (eq_loc eq_float) a.tr_tick b.tr_tick
  && eq_opt (eq_loc eq_victim) a.tr_victim b.tr_victim
  && eq_opt (eq_loc eq_attack) a.tr_attack b.tr_attack

let eq_assertion a b =
  eq_loc eq_string a.as_metric b.as_metric
  && a.as_cmp = b.as_cmp
  && eq_loc eq_float a.as_value b.as_value

let eq_run a b =
  eq_loc eq_string a.r_name b.r_name
  && eq_opt (eq_loc (fun (x : backend) y -> x = y)) a.r_backend b.r_backend
  && eq_opt (eq_loc eq_int) a.r_shards b.r_shards
  && eq_opt (eq_loc eq_int) a.r_batch b.r_batch
  && eq_opt (eq_loc eq_int) a.r_upcall_queue b.r_upcall_queue
  && eq_opt (eq_loc eq_int) a.r_mask_limit b.r_mask_limit
  && eq_opt (eq_loc eq_int) a.r_coarsen b.r_coarsen
  && eq_opt (eq_loc eq_bool) a.r_emc b.r_emc
  && eq_opt (eq_loc (eq_list eq_assertion)) a.r_assert b.r_assert

let eq_block a b =
  match (a, b) with
  | Topology a, Topology b -> eq_loc (eq_list eq_topo_item) a b
  | Policy a, Policy b -> eq_loc eq_policy a b
  | Traffic a, Traffic b -> eq_loc eq_traffic a b
  | Run a, Run b -> eq_loc eq_run a b
  | _ -> false

let equal_program a b =
  eq_loc eq_string a.name b.name && eq_list eq_block a.blocks b.blocks
