(* Quickstart: build a server's dataplane, install a whitelist ACL, and
   watch the megaflow cache fill with adversarial masks — the paper's
   Fig. 2 in code. Then swap the dataplane backend and watch the attack
   stop working.

   Run with: dune exec examples/quickstart.exe *)

open Pi_classifier
open Pi_ovs

let ip = Pi_pkt.Ipv4_addr.of_string

(* Port 1 is the uplink to the fabric, port 2 the pod's vNIC. *)
let uplink = 1
let pod = 2

(* Classify a parsed packet arriving on the uplink. *)
let process_packet dp ~now pkt =
  Dataplane.process dp ~now
    (Flow.of_packet ~in_port:uplink pkt)
    ~pkt_len:(Pi_pkt.Packet.size pkt)

(* One covert round against a freshly created dataplane: the trusted
   packet plus 32 adversarial packets, one per divergence depth. Returns
   the number of subtable probes a fresh victim flow pays afterwards. *)
let covert_round dp =
  let acl =
    Pi_cms.Acl.whitelist
      [ Pi_cms.Acl.entry ~src:(Pi_pkt.Ipv4_addr.Prefix.of_string "10.0.0.10/32") () ]
  in
  Dataplane.install_rules dp
    (Pi_cms.Compile.compile ~allow:(Action.Output pod) acl);
  let trusted =
    Pi_pkt.Packet.udp ~src:(ip "10.0.0.10") ~dst:(ip "10.1.0.2")
      ~src_port:5000 ~dst_port:80 ()
  in
  let action, _ = process_packet dp ~now:0. trusted in
  Printf.printf "trusted packet  -> %s\n" (Action.to_string action);
  let base = ip "10.0.0.10" in
  for k = 0 to 31 do
    let src = Int32.logxor base (Int32.shift_left 1l (31 - k)) in
    let pkt =
      Pi_pkt.Packet.udp ~src ~dst:(ip "10.1.0.2") ~src_port:5000 ~dst_port:80 ()
    in
    ignore (process_packet dp ~now:0.1 pkt)
  done;
  let probe = Flow.make ~in_port:uplink ~ip_src:(ip "172.16.0.1") () in
  let _, outcome = Dataplane.process dp ~now:0.2 probe ~pkt_len:100 in
  outcome.Cost_model.mf_probes

let run_backend ~label backend =
  let rng = Pi_pkt.Prng.create 42L in
  let dp = Dataplane.create backend rng in
  Printf.printf "--- %s (backend %S) ---\n" label (Dataplane.name dp);
  let probes = covert_round dp in
  let st = Dataplane.stats dp in
  Printf.printf
    "after 32 covert packets: %d masks / %d megaflow entries\n"
    st.Dataplane.masks st.Dataplane.megaflows;
  Printf.printf "a fresh victim flow's lookup does %d classifier probes\n\n"
    probes

let () =
  (* 1. The OVS-style cached datapath: each divergence depth mints a new
     megaflow MASK, and every mask is one more hash table every future
     lookup must scan. *)
  run_backend ~label:"cached datapath" (Dataplane.pmd ());
  (* 2. Same ports, same ACL, same packets — against the cache-less
     baseline there is no megaflow cache to poison, so the covert stream
     changes nothing: the victim's cost is fixed by the rule set. *)
  run_backend ~label:"cache-less baseline" (Pi_mitigation.Cacheless.dataplane ())
