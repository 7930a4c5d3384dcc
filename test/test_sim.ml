open Bft_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Event queue -------------------------------------------------------------- *)

let test_queue_orders_by_time () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  let pops = List.init 3 (fun _ -> Event_queue.pop q) in
  check "sorted" true
    (pops = [ Some (1., "a"); Some (2., "b"); Some (3., "c") ]);
  check "then empty" true (Event_queue.pop q = None)

let test_queue_fifo_on_ties () =
  let q = Event_queue.create () in
  List.iter (fun v -> Event_queue.push q ~time:5. v) [ "x"; "y"; "z" ];
  let vs = List.init 3 (fun _ -> Option.get (Event_queue.pop q) |> snd) in
  check "insertion order preserved at equal times" true (vs = [ "x"; "y"; "z" ])

let test_queue_interleaved () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:2. 2;
  check "pop earliest" true (Event_queue.pop q = Some (2., 2));
  Event_queue.push q ~time:1. 1;
  Event_queue.push q ~time:3. 3;
  check "late-added earlier event pops first" true (Event_queue.pop q = Some (1., 1));
  check_int "size tracks" 1 (Event_queue.size q)

let test_queue_grows () =
  let q = Event_queue.create () in
  for i = 999 downto 0 do
    Event_queue.push q ~time:(float_of_int i) i
  done;
  check_int "holds 1000" 1000 (Event_queue.size q);
  let sorted = ref true in
  let prev = ref (-1.) in
  for _ = 1 to 1000 do
    let t, _ = Option.get (Event_queue.pop q) in
    if t < !prev then sorted := false;
    prev := t
  done;
  check "heap order over growth" true !sorted

let test_queue_rejects_nan () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan time" (Invalid_argument "Event_queue.push: bad time")
    (fun () -> Event_queue.push q ~time:Float.nan ())

let test_queue_take () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:2. "b";
  Event_queue.push q ~time:1. "a";
  check_float "min_time is earliest" 1. (Event_queue.min_time q);
  check "take returns value only" true (Event_queue.take q = "a");
  check_float "min_time advances" 2. (Event_queue.min_time q);
  check "take drains" true (Event_queue.take q = "b");
  Alcotest.check_raises "take on empty" (Invalid_argument "Event_queue.take: empty")
    (fun () -> ignore (Event_queue.take q : string))

(* Random operation sequences against a reference model: a sorted list
   keyed (time, seq).  Besides push and pop, the sequences reserve blocks
   of seqs and push them out of order with [push_keyed], and re-key the
   earliest event with [replace_top] — the operations the engine's
   multicast fans and CPU rings are built on.  Catches any heap
   restructuring that loses the seq tie-break or global time order. *)
type queue_op =
  | Push of float
  | Pop
  | Push_reserved of float list  (* reserve, then push in reverse seq order *)
  | Replace_top of float * bool  (* [true]: a fresh seq; [false]: the old one *)

let prop_queue_matches_model =
  (* Times drawn from a small set so ties are common. *)
  let time = QCheck.Gen.oneofl [ 0.; 1.; 1.; 2.; 5.; 5.; 9. ] in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun t -> Push t) time);
          (4, return Pop);
          (1, map (fun ts -> Push_reserved ts) (list_size (int_bound 4) time));
          (2, map2 (fun t fresh -> Replace_top (t, fresh)) time bool);
        ])
  in
  let show = function
    | Push t -> Printf.sprintf "push %g" t
    | Pop -> "pop"
    | Push_reserved ts ->
        "reserved [" ^ String.concat ";" (List.map string_of_float ts) ^ "]"
    | Replace_top (t, fresh) -> Printf.sprintf "replace_top %g %b" t fresh
  in
  let gen =
    QCheck.make
      ~print:(fun ops -> String.concat ", " (List.map show ops))
      QCheck.Gen.(list op)
  in
  QCheck.Test.make ~name:"event queue matches reference model" ~count:300 gen
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] (* (time, seq, value), sorted by (time, seq) *) in
      let next = ref 0 (* the model's next seq *) in
      let insert time seq v =
        let rec go = function
          | [] -> [ (time, seq, v) ]
          | ((t, s, _) as hd) :: tl when t < time || (t = time && s < seq) ->
              hd :: go tl
          | rest -> (time, seq, v) :: rest
        in
        model := go !model
      in
      let agrees () =
        Event_queue.size q = List.length !model
        &&
        match !model with
        | [] -> Event_queue.is_empty q
        | (t, _, v) :: _ -> Event_queue.min_time q = t && Event_queue.top q = v
      in
      List.for_all
        (fun op ->
          (match op with
          | Push time ->
              Event_queue.push q ~time !next;
              insert time !next !next;
              incr next;
              true
          | Pop -> (
              match (Event_queue.pop q, !model) with
              | None, [] -> true
              | Some (t, v), (t', _, v') :: rest ->
                  model := rest;
                  t = t' && v = v'
              | Some _, [] | None, _ :: _ -> false)
          | Push_reserved times ->
              let k = List.length times in
              let first = Event_queue.reserve_seqs q k in
              let ok = first = !next in
              next := !next + k;
              List.rev (List.mapi (fun i t -> (first + i, t)) times)
              |> List.iter (fun (seq, time) ->
                     Event_queue.push_keyed q [| time |] 0 ~seq seq;
                     insert time seq seq);
              ok
          | Replace_top (time, fresh) -> (
              match !model with
              | [] -> true
              | (_, seq, v) :: rest ->
                  let seq = if fresh then Event_queue.reserve_seqs q 1 else seq in
                  if fresh then incr next;
                  Event_queue.replace_top q [| time |] 0 ~seq;
                  model := rest;
                  insert time seq v;
                  true))
          && agrees ())
        ops)

let test_queue_keyed_checks () =
  let q = Event_queue.create () in
  Alcotest.check_raises "unreserved seq"
    (Invalid_argument "Event_queue.push_keyed: unreserved seq") (fun () ->
      Event_queue.push_keyed q [| 1. |] 0 ~seq:0 "x");
  let seq = Event_queue.reserve_seqs q 1 in
  Alcotest.check_raises "bad time"
    (Invalid_argument "Event_queue.push_keyed: bad time") (fun () ->
      Event_queue.push_keyed q [| Float.infinity |] 0 ~seq "x");
  Alcotest.check_raises "replace on empty"
    (Invalid_argument "Event_queue.replace_top: empty") (fun () ->
      Event_queue.replace_top q [| 1. |] 0 ~seq);
  Event_queue.push_keyed q [| 3. |] 0 ~seq "a";
  Event_queue.push q ~time:3. "b";
  check "reserved seq orders before later pushes" true
    (Event_queue.top q = "a");
  Event_queue.replace_top q [| 3. |] 0 ~seq:(Event_queue.reserve_seqs q 1);
  check "re-keyed with a later seq, the tie flips" true
    (Event_queue.take q = "b" && Event_queue.take q = "a")

(* --- RNG ------------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 10 (fun _ -> Rng.float a 1.) in
  let ys = List.init 10 (fun _ -> Rng.float b 1.) in
  check "same seed same stream" true (xs = ys)

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 10 (fun _ -> Rng.float a 1.) in
  let ys = List.init 10 (fun _ -> Rng.float b 1.) in
  check "different seeds differ" true (xs <> ys)

let test_rng_split_independent () =
  let root = Rng.create 7 in
  let a = Rng.split root in
  let b = Rng.split root in
  let xs = List.init 10 (fun _ -> Rng.float a 1.) in
  let ys = List.init 10 (fun _ -> Rng.float b 1.) in
  check "splits differ" true (xs <> ys)

let test_rng_ranges () =
  let r = Rng.create 3 in
  let ok = ref true in
  for _ = 1 to 1000 do
    let f = Rng.float r 10. in
    if f < 0. || f >= 10. then ok := false;
    let i = Rng.int r 7 in
    if i < 0 || i >= 7 then ok := false
  done;
  check "bounds respected" true !ok

let test_rng_gaussian_moments () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Rng.gaussian r ~mean:5. ~std:2.) in
  let mean = List.fold_left ( +. ) 0. xs /. float_of_int n in
  check "gaussian mean approx" true (Float.abs (mean -. 5.) < 0.1)

let test_rng_exponential_positive () =
  let r = Rng.create 13 in
  let ok = ref true in
  for _ = 1 to 1000 do
    if Rng.exponential r ~mean:3. < 0. then ok := false
  done;
  check "exponential nonnegative" true !ok

(* --- Latency --------------------------------------------------------------------- *)

let test_uniform_latency () =
  let l = Latency.Uniform { base = 10.; jitter = 5. } in
  let r = Rng.create 1 in
  let ok = ref true in
  for _ = 1 to 500 do
    let s = Latency.sample l r ~src:0 ~dst:1 in
    if s < 10. || s >= 15. then ok := false
  done;
  check "uniform in [base, base+jitter)" true !ok;
  check_float "upper bound" 15. (Latency.upper_bound l)

let test_matrix_latency_regions () =
  let table = [| [| 1.; 100. |]; [| 100.; 1. |] |] in
  let l = Latency.Matrix { table; region_of = (fun i -> i mod 2) } in
  let r = Rng.create 1 in
  let intra = Latency.sample l r ~src:0 ~dst:2 in
  let inter = Latency.sample l r ~src:0 ~dst:1 in
  check "intra-region near table value" true (intra < 2.);
  check "inter-region near table value" true (inter > 70.);
  check "upper bound covers jitter" true (Latency.upper_bound l >= 100.)

(* --- Network ---------------------------------------------------------------------- *)

let uniform_net ?bandwidth_bps ?gst ?pre_gst_extra () =
  Network.make ?bandwidth_bps ?gst ?pre_gst_extra
    ~latency:(Latency.Uniform { base = 10.; jitter = 0. })
    ~delta:50. ()

let test_network_delta_validated () =
  Alcotest.check_raises "delta below latency bound"
    (Invalid_argument "Network.make: delta below the latency model's upper bound")
    (fun () ->
      ignore
        (Network.make
           ~latency:(Latency.Uniform { base = 100.; jitter = 0. })
           ~delta:50. ()))

let test_serialization_delay () =
  let net = uniform_net ~bandwidth_bps:8e6 () in
  (* 8 Mbit/s: 1000 bytes = 8000 bits = 1 ms. *)
  check_float "1000B at 8Mbps is 1ms" 1. (Network.serialization_ms net ~size:1000);
  let inf = uniform_net () in
  check_float "infinite bandwidth" 0. (Network.serialization_ms inf ~size:1_000_000)

let test_egress_serializes () =
  let net = uniform_net ~bandwidth_bps:8e6 () in
  let rng = Rng.create 1 in
  (* [egress.(src)] is the sender's egress-busy-until, updated in place. *)
  let egress = [| 0. |] in
  let a1 =
    Network.delivery_into net rng ~now:0. ~egress ~src:0 ~dst:1 ~size:1000
  in
  let e1 = egress.(0) in
  let a2 =
    Network.delivery_into net rng ~now:0. ~egress ~src:0 ~dst:2 ~size:1000
  in
  let e2 = egress.(0) in
  check_float "first egress busy until 1ms" 1. e1;
  check_float "second queued behind first" 2. e2;
  check_float "first arrives at 11ms" 11. a1;
  check_float "second arrives at 12ms" 12. a2

let test_pre_gst_delay_bounded () =
  let net = uniform_net ~gst:1000. ~pre_gst_extra:10_000. () in
  let rng = Rng.create 1 in
  let ok = ref true in
  for _ = 1 to 200 do
    let arrival =
      Network.delivery_into net rng ~now:0. ~egress:[| 0. |] ~src:0 ~dst:1
        ~size:10
    in
    (* Delivery within Delta of GST at the latest, never before base. *)
    if arrival > 1000. +. 50. || arrival < 10. then ok := false
  done;
  check "pre-GST deliveries bounded by GST + Delta" true !ok

let test_post_gst_no_extra () =
  let net = uniform_net ~gst:1000. ~pre_gst_extra:10_000. () in
  let rng = Rng.create 1 in
  let arrival =
    Network.delivery_into net rng ~now:2000. ~egress:[| 0. |] ~src:0 ~dst:1
      ~size:10
  in
  check_float "post-GST delivery is just latency" 2010. arrival

(* --- Engine ---------------------------------------------------------------------- *)

let make_engine ?(n = 3) () =
  Engine.create ~n ~network:(uniform_net ()) ~seed:1
    ~msg_size:(fun (_ : string) -> 100)
    ()

let test_engine_delivers () =
  let e = make_engine () in
  let got = ref [] in
  Engine.set_handler e 1 (fun ~src msg -> got := (src, msg) :: !got);
  Engine.send e ~src:0 ~dst:1 "hello";
  Engine.run e ~until:100.;
  check "delivered with source" true (!got = [ (0, "hello") ])

let test_engine_multicast_includes_self () =
  let e = make_engine () in
  let counts = Array.make 3 0 in
  for i = 0 to 2 do
    Engine.set_handler e i (fun ~src:_ _ -> counts.(i) <- counts.(i) + 1)
  done;
  Engine.multicast e ~src:0 "m";
  Engine.run e ~until:100.;
  check "every node got one copy" true (counts = [| 1; 1; 1 |])

let test_engine_self_delivery_immediate () =
  let e = make_engine () in
  let at = ref (-1.) in
  Engine.set_handler e 0 (fun ~src:_ _ -> at := Engine.now e);
  Engine.send e ~src:0 ~dst:0 "self";
  Engine.run e ~until:100.;
  check_float "self delivery at send time" 0. !at

let test_engine_timer_and_cancel () =
  let e = make_engine () in
  let fired = ref [] in
  let (_c1 : unit -> unit) = Engine.set_timer e 10. (fun () -> fired := 1 :: !fired) in
  let c2 = Engine.set_timer e 20. (fun () -> fired := 2 :: !fired) in
  c2 ();
  Engine.run e ~until:100.;
  check "only uncancelled timer fired" true (!fired = [ 1 ])

let test_engine_until_stops () =
  let e = make_engine () in
  let fired = ref false in
  let (_cancel : unit -> unit) = Engine.set_timer e 500. (fun () -> fired := true) in
  Engine.run e ~until:100.;
  check "event beyond horizon not run" true (not !fired);
  check_float "clock advanced to horizon" 100. (Engine.now e)

let test_engine_drained_queue_advances_clock () =
  (* Regression: when the queue empties before [until], the clock used to be
     left at the last event's time, so a later [set_timer] would fire early. *)
  let e = make_engine () in
  Engine.set_handler e 1 (fun ~src:_ _ -> ());
  Engine.send e ~src:0 ~dst:1 "only event";
  Engine.run e ~until:100.;
  check_float "clock is the horizon, not the last event" 100. (Engine.now e);
  let at = ref (-1.) in
  let (_c : unit -> unit) = Engine.set_timer e 5. (fun () -> at := Engine.now e) in
  Engine.run e ~until:200.;
  check_float "timer set after a drained run is horizon-relative" 105. !at

let test_engine_deterministic () =
  let run_once () =
    let e = make_engine () in
    let trace = ref [] in
    for i = 0 to 2 do
      Engine.set_handler e i (fun ~src msg ->
          trace := (Engine.now e, src, i, msg) :: !trace;
          if msg = "ping" && i = 1 then Engine.multicast e ~src:1 "pong")
    done;
    Engine.multicast e ~src:0 "ping";
    Engine.run e ~until:1000.;
    !trace
  in
  check "two identical runs produce identical traces" true (run_once () = run_once ())

let test_engine_link_filter () =
  let e = make_engine () in
  let got = ref 0 in
  Engine.set_handler e 1 (fun ~src:_ _ -> incr got);
  Engine.set_link_filter e (fun ~src ~dst ~now:_ -> not (src = 0 && dst = 1));
  Engine.send e ~src:0 ~dst:1 "dropped";
  Engine.send e ~src:2 ~dst:1 "kept";
  Engine.run e ~until:100.;
  check_int "only unfiltered link delivers" 1 !got

let test_engine_stats () =
  let e = make_engine () in
  Engine.multicast e ~src:0 "m";
  Engine.run e ~until:100.;
  let s = Engine.stats e in
  (* The local self hand-off never hits the wire: n - 1 network sends. *)
  check_int "2 network sends for 3-node multicast" 2 s.Engine.messages_sent;
  check_int "bytes accounted" 200 s.Engine.bytes_sent


let test_engine_cpu_queue_serializes () =
  (* Two messages arriving together at one node are processed serially when
     a CPU cost model is installed. *)
  let net = uniform_net () in
  let e =
    Engine.create ~n:3 ~network:net ~seed:1
      ~msg_size:(fun (_ : string) -> 10)
      ~cpu_cost:(fun _ -> 5.)
      ()
  in
  let times = ref [] in
  Engine.set_handler e 2 (fun ~src:_ _ -> times := Engine.now e :: !times);
  Engine.send e ~src:0 ~dst:2 "a";
  Engine.send e ~src:1 ~dst:2 "b";
  Engine.run e ~until:100.;
  (* Both arrive at 10ms; handlers run at 15 and 20. *)
  check "serial processing" true (List.rev !times = [ 15.; 20. ])

let test_engine_cpu_self_delivery_free () =
  let net = uniform_net () in
  let e =
    Engine.create ~n:2 ~network:net ~seed:1
      ~msg_size:(fun (_ : string) -> 10)
      ~cpu_cost:(fun _ -> 50.)
      ()
  in
  let at = ref (-1.) in
  Engine.set_handler e 0 (fun ~src:_ _ -> at := Engine.now e);
  Engine.send e ~src:0 ~dst:0 "self";
  Engine.run e ~until:100.;
  check_float "self delivery skips the CPU queue" 0. !at

let test_engine_no_cpu_model_is_instant () =
  let e = make_engine () in
  let times = ref [] in
  Engine.set_handler e 2 (fun ~src:_ _ -> times := Engine.now e :: !times);
  Engine.send e ~src:0 ~dst:2 "a";
  Engine.send e ~src:1 ~dst:2 "b";
  Engine.run e ~until:100.;
  check "both processed at arrival" true (List.rev !times = [ 10.; 10. ])


let test_engine_delivery_tap () =
  let e = make_engine () in
  let seen = ref [] in
  Engine.set_delivery_tap e (fun ~time ~src ~dst msg ->
      seen := (time, src, dst, msg) :: !seen);
  Engine.set_handler e 1 (fun ~src:_ _ -> ());
  Engine.send e ~src:0 ~dst:1 "tapped";
  Engine.run e ~until:100.;
  check "tap observed the delivery" true
    (!seen = [ (10., 0, 1, "tapped") ])

let test_engine_duplication () =
  let net =
    Network.make ~duplicate_prob:1.
      ~latency:(Latency.Uniform { base = 10.; jitter = 0. })
      ~delta:50. ()
  in
  let e =
    Engine.create ~n:2 ~network:net ~seed:1 ~msg_size:(fun (_ : string) -> 10) ()
  in
  let count = ref 0 in
  Engine.set_handler e 1 (fun ~src:_ _ -> incr count);
  Engine.send e ~src:0 ~dst:1 "m";
  Engine.run e ~until:100.;
  check_int "probability 1 duplicates every message" 2 !count

let test_duplicate_prob_validated () =
  check "p > 1 rejected" true
    (try
       ignore
         (Network.make ~duplicate_prob:1.5
            ~latency:(Latency.Uniform { base = 1.; jitter = 0. })
            ~delta:10. ());
       false
     with Invalid_argument _ -> true)

let test_engine_drop () =
  let net =
    Network.make ~drop_prob:1.
      ~latency:(Latency.Uniform { base = 10.; jitter = 0. })
      ~delta:50. ()
  in
  let e =
    Engine.create ~n:2 ~network:net ~seed:1 ~msg_size:(fun (_ : string) -> 10) ()
  in
  let count = ref 0 in
  Engine.set_handler e 1 (fun ~src:_ _ -> incr count);
  Engine.send e ~src:0 ~dst:1 "m";
  Engine.run e ~until:100.;
  check_int "probability 1 drops every message" 0 !count

let test_drop_prob_validated () =
  check "p > 1 rejected" true
    (try
       ignore
         (Network.make ~drop_prob:1.5
            ~latency:(Latency.Uniform { base = 1.; jitter = 0. })
            ~delta:10. ());
       false
     with Invalid_argument _ -> true);
  check "p < 0 rejected" true
    (try
       ignore
         (Network.make ~drop_prob:(-0.1)
            ~latency:(Latency.Uniform { base = 1.; jitter = 0. })
            ~delta:10. ());
       false
     with Invalid_argument _ -> true)


(* --- Golden delivery order --------------------------------------------------------- *)

(* A fixed workload per network model, digested as the stream of
   deliveries the tap sees (exact time, src, dst) plus the engine's event
   and message counters.  The expected values were recorded on the
   one-heap-event-per-copy engine, so any scheduling change that reorders
   a single delivery — a lost (time, seq) tie-break, a CPU queue entry
   re-keyed with a fresh seq, a changed RNG draw order — fails here.

   Every node multicasts a fresh message every 10 ms; a receiver relays
   each message for two further hops, by multicast on one node in eight
   and by unicast otherwise, so fan-outs, unicasts, CPU backlogs and
   timers all interleave. *)
let golden_run ?cpu_cost ?(setup = fun _ ~handler:_ -> ()) network =
  let n = 16 in
  let e =
    Engine.create ~n ~network ~seed:7
      ~msg_size:(fun m -> 64 + (m mod 5 * 300))
      ?cpu_cost ()
  in
  let buf = Buffer.create (1 lsl 16) in
  Engine.set_delivery_tap e (fun ~time ~src ~dst _ ->
      Printf.bprintf buf "%h %d %d\n" time src dst);
  let handler i ~src:_ m =
    let hop = m / 1000 in
    if hop < 2 then
      if (i + hop) mod 8 = 0 then Engine.multicast e ~src:i (m + 1000)
      else Engine.send e ~src:i ~dst:((i + 1 + hop) mod n) (m + 1000)
  in
  for i = 0 to n - 1 do
    Engine.set_handler e i (handler i)
  done;
  for k = 0 to 7 do
    for i = 0 to n - 1 do
      Engine.schedule_at e
        ((10. *. float_of_int k) +. (0.25 *. float_of_int i))
        (fun () -> Engine.multicast e ~src:i ((k * n) + i))
    done
  done;
  setup e ~handler;
  Engine.run e ~until:5000.;
  let s = Engine.stats e in
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    s.Engine.events_processed,
    s.Engine.messages_sent )

let wan_table = [| [| 1.; 40.; 90. |]; [| 40.; 2.; 60. |]; [| 90.; 60.; 3. |] |]

let golden_net ?bandwidth_bps ?gst ?pre_gst_extra ?duplicate_prob ?drop_prob
    ?(delta = 50.) latency =
  Network.make ?bandwidth_bps ?gst ?pre_gst_extra ?duplicate_prob ?drop_prob
    ~latency ~delta ()

let flat = Latency.Uniform { base = 10.; jitter = 0. }
let jittered = Latency.Uniform { base = 10.; jitter = 5. }
let wan = Latency.Matrix { table = wan_table; region_of = (fun i -> i mod 3) }

let golden_cases =
  [
    ("uniform zero jitter", fun () -> golden_run (golden_net flat));
    ("uniform jitter", fun () -> golden_run (golden_net jittered));
    ("wan matrix", fun () -> golden_run (golden_net ~delta:100. wan));
    ( "bandwidth",
      fun () ->
        golden_run
          (golden_net ~bandwidth_bps:8e6
             (Latency.Uniform { base = 10.; jitter = 2. })) );
    ( "cpu model",
      fun () ->
        golden_run
          ~cpu_cost:(fun m -> if m mod 2 = 0 then 1. else 0.5)
          (golden_net flat) );
    ( "cpu wan",
      fun () ->
        golden_run
          ~cpu_cost:(fun m -> 0.25 +. (0.125 *. float_of_int (m mod 3)))
          (golden_net ~bandwidth_bps:1e9 ~delta:100. wan) );
    ( "drop + dup",
      fun () ->
        golden_run (golden_net ~drop_prob:0.1 ~duplicate_prob:0.3 flat) );
    ( "pre-GST extra",
      fun () -> golden_run (golden_net ~gst:60. ~pre_gst_extra:100. flat) );
    ( "partition",
      fun () ->
        golden_run (golden_net jittered) ~setup:(fun e ~handler:_ ->
            Engine.set_link_filter e (fun ~src ~dst ~now ->
                now >= 50. || (src < 8) = (dst < 8))) );
    ( "delay overlay",
      fun () ->
        golden_run (golden_net flat) ~setup:(fun e ~handler:_ ->
            Engine.set_link_delay e (fun ~src ~dst:_ ~now ->
                if src mod 3 = 0 && now >= 20. && now < 60. then 7. else 0.)) );
    ( "crash with cpu backlog",
      fun () ->
        golden_run ~cpu_cost:(fun _ -> 3.) (golden_net flat)
          ~setup:(fun e ~handler ->
            Engine.schedule_at e 30. (fun () -> Engine.crash e 5);
            Engine.schedule_at e 32. (fun () ->
                Engine.recover e 5;
                Engine.set_handler e 5 (handler 5))) );
  ]

(* (tap-stream MD5, events_processed, messages_sent) per case. *)
let golden_expected =
  [
    ("uniform zero jitter", ("edfd124b44696529c70f45cbd5fb8c6e", 25472, 24192));
    ("uniform jitter", ("551c07bcdd24ce466c5ae12bea3f0c39", 25472, 24192));
    ("wan matrix", ("b00ef3732b01c6266df58636e80cef26", 25472, 24192));
    ("bandwidth", ("66a2554a7e0eb5943c992b30f225ca2c", 25472, 24192));
    ("cpu model", ("b61245caf25de7415765eb5e76bcd801", 49664, 24192));
    ("cpu wan", ("26ab7b177f1bc67ae340b3e585a974db", 49664, 24192));
    ("drop + dup", ("05e6d7c51465f62a97fbdf52c3be5f38", 38149, 31234));
    ("pre-GST extra", ("37496ee5ac09fc1862a93d9dacc4c89a", 25472, 24192));
    ("partition", ("93f65f0138d7f1502206187a74e33f62", 14524, 15714));
    ("delay overlay", ("4a076614c3d0064e83f5787313b1421f", 25472, 24192));
    ("crash with cpu backlog", ("636b161fd9579860227bee1b9a76ea95", 49041, 23898));
  ]

let test_golden_delivery_order () =
  List.iter
    (fun (name, run) ->
      let digest, events, msgs = run () in
      let want_digest, want_events, want_msgs = List.assoc name golden_expected in
      Alcotest.(check string) (name ^ ": delivery stream") want_digest digest;
      check_int (name ^ ": events processed") want_events events;
      check_int (name ^ ": messages sent") want_msgs msgs)
    golden_cases

let () =
  Alcotest.run "sim"
    [
      ( "event-queue",
        [
          Alcotest.test_case "orders by time" `Quick test_queue_orders_by_time;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_on_ties;
          Alcotest.test_case "interleaved" `Quick test_queue_interleaved;
          Alcotest.test_case "growth" `Quick test_queue_grows;
          Alcotest.test_case "rejects nan" `Quick test_queue_rejects_nan;
          Alcotest.test_case "min_time/take" `Quick test_queue_take;
          Alcotest.test_case "reserved seqs" `Quick test_queue_keyed_checks;
          QCheck_alcotest.to_alcotest prop_queue_matches_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "exponential sign" `Quick test_rng_exponential_positive;
        ] );
      ( "latency",
        [
          Alcotest.test_case "uniform" `Quick test_uniform_latency;
          Alcotest.test_case "matrix regions" `Quick test_matrix_latency_regions;
        ] );
      ( "network",
        [
          Alcotest.test_case "delta validated" `Quick test_network_delta_validated;
          Alcotest.test_case "serialization delay" `Quick test_serialization_delay;
          Alcotest.test_case "egress FIFO" `Quick test_egress_serializes;
          Alcotest.test_case "pre-GST bounded" `Quick test_pre_gst_delay_bounded;
          Alcotest.test_case "post-GST clean" `Quick test_post_gst_no_extra;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivers" `Quick test_engine_delivers;
          Alcotest.test_case "multicast + self" `Quick test_engine_multicast_includes_self;
          Alcotest.test_case "self delivery immediate" `Quick
            test_engine_self_delivery_immediate;
          Alcotest.test_case "timers + cancel" `Quick test_engine_timer_and_cancel;
          Alcotest.test_case "horizon" `Quick test_engine_until_stops;
          Alcotest.test_case "drained queue advances clock" `Quick
            test_engine_drained_queue_advances_clock;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "link filter" `Quick test_engine_link_filter;
          Alcotest.test_case "stats" `Quick test_engine_stats;
          Alcotest.test_case "cpu queue serializes" `Quick
            test_engine_cpu_queue_serializes;
          Alcotest.test_case "cpu skips self delivery" `Quick
            test_engine_cpu_self_delivery_free;
          Alcotest.test_case "no cpu model" `Quick test_engine_no_cpu_model_is_instant;
          Alcotest.test_case "delivery tap" `Quick test_engine_delivery_tap;
          Alcotest.test_case "duplication" `Quick test_engine_duplication;
          Alcotest.test_case "duplicate prob validated" `Quick
            test_duplicate_prob_validated;
          Alcotest.test_case "drop" `Quick test_engine_drop;
          Alcotest.test_case "drop prob validated" `Quick
            test_drop_prob_validated;
          Alcotest.test_case "golden delivery order" `Quick
            test_golden_delivery_order;
        ] );
    ]
