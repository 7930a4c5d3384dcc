type t = {
  latency : Latency.t;
  bandwidth_bps : float option;
  gst : float;
  delta : float;
  pre_gst_extra : float;
  duplicate_prob : float;
  drop_prob : float;
}

let make ?bandwidth_bps ?(gst = 0.) ?(pre_gst_extra = 0.) ?(duplicate_prob = 0.)
    ?(drop_prob = 0.) ~latency ~delta () =
  if delta <= 0. then invalid_arg "Network.make: delta must be positive";
  if Latency.upper_bound latency > delta then
    invalid_arg "Network.make: delta below the latency model's upper bound";
  if gst < 0. || pre_gst_extra < 0. then
    invalid_arg "Network.make: negative gst or pre_gst_extra";
  if duplicate_prob < 0. || duplicate_prob > 1. then
    invalid_arg "Network.make: duplicate_prob outside [0, 1]";
  if drop_prob < 0. || drop_prob > 1. then
    invalid_arg "Network.make: drop_prob outside [0, 1]";
  { latency; bandwidth_bps; gst; delta; pre_gst_extra; duplicate_prob;
    drop_prob }

let serialization_ms t ~size =
  match t.bandwidth_bps with
  | None -> 0.
  | Some bps -> float_of_int size *. 8. /. bps *. 1000.

(* [egress.(src)] is read and written in place (unboxed float-array
   traffic) and only the arrival time crosses the call boundary. *)
let delivery_into t rng ~now ~egress ~src ~dst ~size =
  let start = Float.max now (Array.unsafe_get egress src) in
  let egress_end = start +. serialization_ms t ~size in
  Array.unsafe_set egress src egress_end;
  let propagation = Latency.sample t.latency rng ~src ~dst in
  let base = egress_end +. propagation in
  if start >= t.gst || t.pre_gst_extra = 0. then base
  else
    (* Adversarial extra delay, but the partially synchronous model still
       requires delivery within Delta of max(send time, GST). *)
    let delayed = base +. Rng.float rng t.pre_gst_extra in
    Float.min delayed (Float.max base (t.gst +. t.delta))
