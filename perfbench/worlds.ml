(* The four benchmark worlds: their inputs (a pure function of the
   workload seed), one timed job each, the world's set-up step, and the
   output checks every job must pass. *)

open Bft_runtime
module Kind = Protocol_kind
module Spec = Bft_mempool.Spec
module Ingest = Bft_mempool.Ingest
module Proto = Bft_types.Protocol_intf

let module_of : Kind.t -> (module Proto.S) = function
  | Kind.Simple_moonshot -> (module Moonshot.Simple_node.Protocol)
  | Kind.Pipelined_moonshot -> (module Moonshot.Pipelined_node.Protocol)
  | Kind.Commit_moonshot -> (module Moonshot.Pipelined_node.Commit_protocol)
  | Kind.Jolteon -> (module Jolteon.Jolteon_node.Protocol)
  | Kind.Hotstuff -> (module Hotstuff.Hotstuff_node.Protocol)

let traced (module P : Proto.S) : (module Proto.S) =
  (module Tracer.Wrap (P))

(* {2 Measuring one job} *)

type cost = {
  wall_s : float;
  alloc_b : float;  (* heap bytes allocated *)
  promoted_b : float;  (* bytes promoted to the major heap *)
  peak_heap_b : float;  (* largest major heap seen during the job *)
  minor_gcs : int;
  major_gcs : int;
}

(* The major heap's size at the end of every major cycle; [measure]
   resets it, so it holds the peak of the job in progress. *)
let heap_peak = ref 0

let sample_heap () =
  heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words

let _alarm = Gc.create_alarm sample_heap

let measure f =
  heap_peak := 0;
  sample_heap ();
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t1 = Unix.gettimeofday () in
  let a1 = Gc.allocated_bytes () in
  let g1 = Gc.quick_stat () in
  sample_heap ();
  ( v,
    {
      wall_s = t1 -. t0;
      alloc_b = a1 -. a0;
      promoted_b = 8. *. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
      peak_heap_b = 8. *. float_of_int !heap_peak;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* Growable float buffer: client latencies are recorded inside the timed
   region, so appending a sample must not allocate. *)
type samples = { mutable data : Float.Array.t; mutable len : int }

let push s x =
  if s.len = Float.Array.length s.data then begin
    let d = Float.Array.make (max 1024 (2 * s.len)) 0. in
    Float.Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  Float.Array.set s.data s.len x;
  s.len <- s.len + 1

(* {2 What a job produced}

   Times are simulated ms on the simulator worlds and wall ms on the
   socket world. *)

type clients = {
  submitted : int;
  rejected : int;
  client_p50_ms : float;
  client_p99_ms : float;
  admitted : int;
  deferred : int;
  lane_spread : float;  (* (max - min) / mean commands committed per lane *)
}

type output = {
  latencies_ms : float list;  (* proposal -> quorum commit, per block *)
  timeline : (float * float option) list;  (* created, quorum commit *)
  gap_ms : float;  (* time without service: see [gaps] *)
  clients : clients option;
  msgs : int;
  bytes : int;
  events : int;
  commits : int;  (* quorum-committed blocks *)
  fingerprint : string;  (* digest of every simulated output; "" on sockets *)
  recovery : (float * int * float) option;  (* catch-up ms, heal msgs, slack *)
}

(* Gaps between consecutive quorum commits. *)
let gaps timeline =
  match List.sort Float.compare (List.filter_map snd timeline) with
  | [] -> []
  | first :: rest ->
      List.rev
        (snd
           (List.fold_left (fun (p, acc) t -> (t, (t -. p) :: acc)) (first, []) rest))

(* {2 Simulator worlds} *)

(* Round-robin leaders rotate through every node; node 3 leads one view
   in seven and otherwise follows.  Its outage lasts 2 s: outages of 1-4 s
   catch up, while a 10 s one trips the liveness bound (a known Sync
   catch-up defect). *)
let crash_node = 3
let outage_ms = 2_000.

(* Open-loop rate: half of the calibrated drain capacity of the
   clients-crash-n7 world.  Calibration (a 16 s traffic-free, fault-free
   run of the same config with 10 ms links: 99.9 blocks/s x 512-command
   batches = 51.1k commands/s) was made once and is fixed here, so the
   offered load is an input that no change to the program can move. *)
let clients_rate_per_s = 25_600.

let wan_config ~seed ~duration_ms =
  {
    (Config.default Kind.Pipelined_moonshot ~n:200) with
    Config.payload_bytes = 18_000;
    duration_ms;
    seed;
  }

(* Links have no jitter, so the seed draws the inputs that would
   otherwise not vary: the link delay (10 ms +- 1 %) and the crash time
   (4-5 s), besides the client arrival stream. *)
let clients_config ~seed ~duration_ms =
  let rng = Random.State.make [| seed |] in
  let base = 9.9 +. Random.State.float rng 0.2 in
  let crash_at = 4_000. +. Random.State.float rng 1_000. in
  {
    (Config.local Kind.Commit_moonshot ~n:7) with
    Config.latency = Config.Uniform { base; jitter = 0. };
    duration_ms;
    seed;
    faults =
      [
        Bft_faults.Fault_schedule.Crash { node = crash_node; at = crash_at };
        Bft_faults.Fault_schedule.Recover
          { node = crash_node; at = crash_at +. outage_ms };
      ];
    clients =
      Some
        {
          Spec.default with
          Spec.clients = 1_000_000;
          rate_per_s = clients_rate_per_s;
          lanes = 8;
          clock = Spec.Wall;
          seed = 1 + (seed * 7919);
        };
  }

(* The protocol outputs of the model checker's world, run forward on the
   simulator: Jolteon, n = 5, the checker's delta, node 1 (the view-2
   leader) crashed from the start, seeded link jitter. *)
let mc_sim_config ~seed =
  {
    (Config.local Kind.Jolteon ~n:5) with
    Config.latency = Config.Uniform { base = 3.; jitter = 2. };
    delta_ms = 10.;
    duration_ms = 3_000.;
    seed;
    faults = [ Bft_faults.Fault_schedule.Crash { node = 1; at = 0. } ];
  }

let sim_output ~client_lat (r : Harness.run_result) =
  let m = r.Harness.metrics in
  let timeline =
    List.map
      (fun rc -> (rc.Metrics.created_ms, rc.Metrics.quorum_commit_ms))
      m.Metrics.records
  in
  let clients =
    Option.map
      (fun (s : Ingest.summary) ->
        let lanes = Array.map float_of_int s.Ingest.per_lane_committed in
        let mx = Array.fold_left Float.max neg_infinity lanes
        and mn = Array.fold_left Float.min infinity lanes in
        let mean =
          Array.fold_left ( +. ) 0. lanes /. float_of_int (Array.length lanes)
        in
        {
          submitted = s.Ingest.submitted;
          rejected = s.Ingest.rejected;
          client_p50_ms = Bft_stats.Descriptive.percentile 50. client_lat;
          client_p99_ms = Bft_stats.Descriptive.percentile 99. client_lat;
          admitted = s.Ingest.admitted;
          deferred = s.Ingest.deferred;
          lane_spread = (if mean > 0. then (mx -. mn) /. mean else 0.);
        })
      r.Harness.client_summary
  in
  let recovery, gap_ms =
    match r.Harness.fault_summary with
    | None -> (None, List.fold_left Float.max 0. (gaps timeline))
    | Some fs ->
        let rep = fs.Harness.liveness in
        let catchup =
          List.fold_left
            (fun acc (rc : Bft_obs.Liveness.recovery) ->
              match rc.Bft_obs.Liveness.caught_up_at_ms with
              | Some t -> Float.max acc (t -. rc.Bft_obs.Liveness.recovered_at_ms)
              | None -> acc)
            0. rep.Bft_obs.Liveness.recoveries
        in
        ( Some
            ( catchup,
              fs.Harness.messages_during_heal,
              Option.value rep.Bft_obs.Liveness.min_slack_ms ~default:0. ),
          rep.Bft_obs.Liveness.max_quorum_gap_ms )
  in
  let fingerprint =
    let b = Buffer.create 4096 in
    List.iter
      (fun rc ->
        Printf.bprintf b "%d:%Lx:%h:%s;" rc.Metrics.block.Bft_types.Block.height
          (Bft_types.Hash.to_int64 rc.Metrics.block.Bft_types.Block.hash)
          rc.Metrics.created_ms
          (match rc.Metrics.quorum_commit_ms with
          | Some t -> Printf.sprintf "%h" t
          | None -> "-"))
      m.Metrics.records;
    Printf.bprintf b "|%d|%d" r.Harness.messages_sent r.Harness.bytes_sent;
    (match r.Harness.client_summary with
    | Some s -> Buffer.add_string b (Format.asprintf "|%a" Ingest.pp_summary s)
    | None -> ());
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  {
    latencies_ms = m.Metrics.latencies_ms;
    timeline;
    gap_ms;
    clients;
    msgs = r.Harness.messages_sent;
    bytes = r.Harness.bytes_sent;
    events = r.Harness.events_processed;
    commits = m.Metrics.committed_blocks;
    fingerprint;
    recovery;
  }

(* The run itself audits safety (a conflicting commit raises) and, on
   fault runs, liveness (a missed bound raises); here the remaining
   output checks. *)
let check_sim (r : Harness.run_result) =
  let m = r.Harness.metrics in
  if m.Metrics.committed_blocks < 2 then Error "fewer than two blocks committed"
  else
    match r.Harness.client_summary with
    | None -> Ok ()
    | Some s ->
        let open Ingest in
        let rhs = s.rejected + s.committed + s.pending + s.backlogged in
        if s.submitted <> rhs then
          Error
            (Printf.sprintf
               "client conservation: submitted %d <> rejected %d + committed \
                %d + pending %d + backlogged %d"
               s.submitted s.rejected s.committed s.pending s.backlogged)
        else if s.committed = 0 then Error "no client command committed"
        else Ok ()

let run_sim ?(trace = false) (cfg : Config.t) =
  let (module P : Proto.S) =
    let p = module_of cfg.Config.protocol in
    if trace then traced p else p
  in
  (* Exact client latencies (the ingest summary's are histogram buckets). *)
  let lat = { data = Float.Array.make 0 0.; len = 0 } in
  let on_client_command ~seq:_ ~lane:_ ~submit_ms ~commit_ms =
    push lat (commit_ms -. submit_ms)
  in
  match measure (fun () -> Harness.run_protocol ~on_client_command (module P) cfg) with
  | r, cost ->
      Result.map
        (fun () ->
          let client_lat = List.init lat.len (Float.Array.get lat.data) in
          ((r, sim_output ~client_lat r), cost))
        (check_sim r)
  | exception Bft_obs.Liveness.Violation v -> Error ("liveness: " ^ v)
  | exception Bft_chain.Commit_log.Safety_violation v -> Error ("safety: " ^ v)

(* {2 Socket world} *)

(* Without injected delay a localhost cluster's latency is processor time
   alone: on a shared 2-vCPU machine its commit latency and block period
   doubled from one minute to the next.  A 25 ms sender-side delay per
   frame keeps the protocol's message delay the larger part. *)
let net_link_delay_ms = 25.
let net_blocks = 100
let net_payload = 4_096

let net_config ~blocks ~wal_dir =
  {
    (Net_harness.config Kind.Commit_moonshot ~n:4 ~blocks) with
    Bft_net.Tcp.payload_bytes = net_payload;
    wal_dir = Some wal_dir;
    link_delay_ms = net_link_delay_ms;
    timeout_ms = 60_000.;
  }

let run_net ?(trace = false) ~blocks ~wal_dir () =
  let (module P : Proto.S) =
    let p = module_of Kind.Commit_moonshot in
    if trace then traced p else p
  in
  let cfg = net_config ~blocks ~wal_dir in
  let res, cost = measure (fun () -> Bft_net.Tcp.run (module P) cfg) in
  match Net_harness.check res ~target:blocks with
  | Error e -> Error e
  | Ok () ->
      let open Bft_net.Tcp in
      let lat = quorum_latencies res ~quorum:(Net_harness.quorum ~n:cfg.n) in
      (* A block is created at its first broadcast (the earliest proposal
         of its hash, as in [quorum_latencies]) and quorum-committed its
         latency later.  The check above made every node agree on the
         hash at each height. *)
      let created = Hashtbl.create 512 and hash_at = Hashtbl.create 512 in
      Array.iter
        (fun nr ->
          List.iter
            (fun p ->
              match Hashtbl.find_opt created p.p_hash with
              | Some t when t <= p.p_time_ms -> ()
              | _ -> Hashtbl.replace created p.p_hash p.p_time_ms)
            nr.proposals;
          List.iter (fun c -> Hashtbl.replace hash_at c.c_height c.c_hash) nr.commits)
        res.nodes;
      let timeline =
        List.map
          (fun (h, l) ->
            let c = Hashtbl.find created (Hashtbl.find hash_at h) in
            (c, Some (c +. l)))
          lat
      in
      let sum f = Array.fold_left (fun a nr -> a + f nr) 0 res.nodes in
      Ok
        ( ( res,
          {
            latencies_ms = List.map snd lat;
            timeline;
            (* A cluster's largest gaps are scheduling accidents on a
               shared machine; its 90th percentile gap is steadier. *)
            gap_ms =
              (match gaps timeline with
              | [] -> 0.
              | g -> Bft_stats.Descriptive.percentile 90. g);
            clients = None;
            msgs = sum (fun nr -> nr.messages_sent);
            bytes = sum (fun nr -> nr.bytes_sent);
            events = 0;
            commits = List.length lat;
            fingerprint = "";
            recovery = None;
          } ),
          cost )

(* {2 Model-checker world}

   The committed symmetry acceptance world (Jolteon, n = 5, view bound 3,
   timer budget 2, crash of the view-2 leader) with reorder window 1
   instead of 2: 13k states, about 1.5 s, so a run holds several
   exhaustions with probes between them.  One 14-19 s exhaustion of the
   window-2 world per run left its time spreading 0.26-0.30 over 10 runs. *)

let mc_world ?(symmetry = true) ?max_depth () =
  Bft_mc.Checker.config ~n:5 ~view_bound:3 ~timer_budget:2 ~reorder_window:1
    ?max_depth
    ~faults:[ Bft_mc.Mc_schedule.Crash 1 ]
    ~symmetry ()

let check_mc (r : Bft_mc.Mc_report.t) =
  let open Bft_mc.Mc_report in
  if r.violations <> [] then
    Error (Format.asprintf "mc violations:@ %a" Bft_mc.Mc_report.pp r)
  else if not r.stats.exhausted then Error "mc world not exhausted"
  else if r.deadlocks <> 0 then Error (Printf.sprintf "%d deadlocks" r.deadlocks)
  else if r.livelocks <> 0 then Error (Printf.sprintf "%d livelocks" r.livelocks)
  else Ok ()

let run_mc ?stop ?(symmetry = true) () =
  measure (fun () ->
      Bft_mc.Checker.check ?stop ~jobs:1 Kind.Jolteon (mc_world ~symmetry ()))
