(** Deterministic traffic generation: flow pools with configurable
    popularity skew, and arrival schedules.

    This replaces the paper's iperf/physical-testbed traffic. Victim
    traffic is modelled as a pool of 5-tuple flows whose packets arrive
    at a configured rate; the pool can churn (flows ending, new flows
    starting) which is what exercises the flow-cache miss path even for
    benign traffic. *)

type flow_spec = {
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  proto : int;       (** [Ipv4.proto_tcp] or [Ipv4.proto_udp] *)
  src_port : int;
  dst_port : int;
  pkt_len : int;     (** on-wire frame size for this flow's packets *)
}

val pp_flow : Format.formatter -> flow_spec -> unit

val packet_of_flow : flow_spec -> Packet.t
(** A representative packet of the flow (payload zero-filled to reach
    [pkt_len]). *)

(** A pool of concurrent flows with Zipf-distributed popularity. *)
module Flow_pool : sig
  type t

  val create :
    Prng.t ->
    n_flows:int ->
    src_net:Ipv4_addr.Prefix.t ->
    dst_net:Ipv4_addr.Prefix.t ->
    ?proto:int ->
    ?dst_ports:int array ->
    ?pkt_len:int ->
    ?zipf_s:float ->
    unit -> t
  (** [create rng ~n_flows ~src_net ~dst_net ()] draws [n_flows] random
      flows. [dst_ports] defaults to [[|80; 443; 8080; 5001|]];
      [pkt_len] to 1500; [zipf_s] (popularity exponent) to 1.0 — use 0.
      for uniform popularity. *)

  val size : t -> int

  val sample : t -> Prng.t -> flow_spec
  (** Draw a flow according to the popularity distribution. *)

  val sample_index : t -> Prng.t -> int
  (** The index {!sample} would draw, with the same PRNG draws:
      [sample t rng] is [nth t (sample_index t rng)]. *)

  val nth : t -> int -> flow_spec

  val churn : t -> Prng.t -> fraction:float -> int
  (** Replace ~[fraction] of the flows with fresh random ones (flow
      arrival/departure). Returns the number replaced. *)

  val iter : (flow_spec -> unit) -> t -> unit
end

(** Packet arrival schedules. *)
module Schedule : sig
  val cbr : rate_pps:float -> start:float -> stop:float -> float Seq.t
  (** Evenly spaced arrivals in [\[start, stop)]. *)

  val poisson :
    Prng.t -> rate_pps:float -> start:float -> stop:float -> float Seq.t
  (** Poisson arrivals (exponential inter-arrival times). The sequence is
      ephemeral: it consumes the generator as it is forced. *)

  val count : float Seq.t -> int
end

val rate_for_bandwidth : bits_per_sec:float -> pkt_len:int -> float
(** Packets per second needed to fill [bits_per_sec] with frames of
    [pkt_len] bytes. *)
