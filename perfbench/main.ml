(* Benchmark runner: one workload, one seed, one measurement window.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out-dir D]

   [--trace 0] times jobs of the workload with no instrumentation and
   prints the end-to-end metrics; [--trace 1] runs the same jobs untraced
   and once through the {!Tracer.Wrap} functor (plus each workload's model
   toggles) and prints the per-layer metrics.  Every run ends with the
   tracer self-test.  The last line of standard output is the result
   object: {"correct", "attempted", "failed", "metrics"}. *)

open Bft_runtime
module W = Worlds

let workloads = [ "wan-n200"; "clients-crash-n7"; "net-localhost"; "mc-sym-n5" ]

(* {2 Result accumulation} *)

(* [failed] counts failed operations: failed checks and rejected client
   commands; only a failed check makes the result incorrect. *)
let attempted = ref 0
let failed = ref 0
let checks_failed = ref 0

let fail_op msg =
  incr failed;
  incr checks_failed;
  Printf.eprintf "check failed: %s\n%!" msg

(* Run one checked operation; [None] if its check failed. *)
let op f =
  incr attempted;
  match f () with
  | Ok v -> Some v
  | Error e ->
      fail_op e;
      None
  | exception e ->
      fail_op (Printexc.to_string e);
      None

let metrics : (string * float * string) list ref = ref []
let put name unit v = metrics := (name, v, unit) :: !metrics

(* {2 Statistics} *)

let median l = Bft_stats.Descriptive.median l
let pct p l = if l = [] then 0. else Bft_stats.Descriptive.percentile p l

(* Client-perceived latency under the paper's queueing model (lib/app
   Client): a request arriving at [t] rides the next created block, so it
   waits until that block's creation and then its commit latency.
   Arrivals are sampled on a uniform grid over the committed span; the
   result is the list of sampled latencies. *)
let client_model timeline =
  let blocks =
    List.filter_map
      (fun (c, q) -> Option.map (fun q -> (c, q -. c)) q)
      timeline
    |> List.sort compare |> Array.of_list
  in
  let nb = Array.length blocks in
  if nb < 2 then []
  else
    let t0 = fst blocks.(0) and t1 = fst blocks.(nb - 1) in
    let samples = 20_000 in
    let step = (t1 -. t0) /. float_of_int samples in
    let lat = Array.make samples 0. in
    let j = ref 1 in
    for i = 0 to samples - 1 do
      let t = t0 +. (step *. (float_of_int i +. 0.5)) in
      while fst blocks.(!j) < t do incr j done;
      let c, l = blocks.(!j) in
      lat.(i) <- c -. t +. l
    done;
    Array.to_list lat

let block_period timeline =
  let created =
    List.filter_map (fun (c, q) -> Option.map (fun _ -> c) q) timeline
    |> List.sort Float.compare
  in
  match created with
  | [] | [ _ ] -> 0.
  | first :: _ ->
      let last = List.nth created (List.length created - 1) in
      (last -. first) /. float_of_int (List.length created - 1)

(* {2 Machine-speed probe}

   The machines this runs on are shared, and their speed drifts by a third
   over minutes, for every process alike.  A fixed workload of the
   benchmark's own (hashing, short-lived allocation, sorting), timed
   between jobs, measures that drift; [job_norm_s] divides it out. *)

let probe_times = ref []

let probe () =
  let t0 = Unix.gettimeofday () in
  let n = 1 lsl 15 in
  let h = Hashtbl.create n in
  let acc = ref 0 in
  for i = 0 to 150_000 do
    let k = (i * 40503) land (n - 1) in
    let l = Option.value (Hashtbl.find_opt h k) ~default:[] in
    Hashtbl.replace h k (i :: (match l with a :: b :: _ -> [ a; b ] | l -> l));
    if i land 1023 = 0 then begin
      let a = Array.init 2048 (fun j -> ((j * 7919) + i) land 0xffff) in
      Array.sort compare a;
      acc := !acc + a.(1024)
    end
  done;
  ignore (Sys.opaque_identity !acc);
  probe_times := (Unix.gettimeofday () -. t0) :: !probe_times

let probes () = for _ = 1 to 3 do probe () done

(* The probe's time on the reference machine state: [job_norm_s] is a
   job's wall time rescaled to a machine on which the probe takes this. *)
let probe_reference_s = 0.1

(* {2 Timed loop}

   Jobs run back to back until the next one would overrun [seconds]
   (at least [min_jobs]), with probes before each job and after the
   last. *)

let timed ~seconds ?(min_jobs = 1) job =
  let t0 = Unix.gettimeofday () in
  let rec go n acc durations =
    (* Every job starts from a collected heap, not from its
       predecessor's garbage. *)
    Gc.full_major ();
    probes ();
    Gc.full_major ();
    let t = Unix.gettimeofday () in
    let acc =
      match job () with
      | Some ((_, c) as j) ->
          Printf.eprintf "job %d: %.4f s\n%!" n c.W.wall_s;
          j :: acc
      | None -> acc
    in
    let now = Unix.gettimeofday () in
    let durations = (now -. t) :: durations in
    if n < min_jobs || now -. t0 +. median durations <= seconds then
      go (n + 1) acc durations
    else begin
      probes ();
      List.rev acc
    end
  in
  go 1 [] []

(* End-to-end metrics shared by every world.  [job_norm_s] is the fastest
   job, rescaled by the run's median probe: the jobs of a run do the same
   work (on the simulator their outputs are checked identical), and the
   fastest is the one least disturbed by other load.  Every other metric
   is the median over the run's jobs of that job's value; on sockets the
   median keeps one slow cluster from moving a tail metric. *)
let put_e2e ~jobs (outs : W.output list) =
  let med f = median (List.map f outs) in
  let costs = List.map snd jobs in
  let fastest = List.fold_left (fun m c -> Float.min m c.W.wall_s) infinity costs in
  let probe_s = median !probe_times in
  put "job_wall_s" "s" fastest;
  put "probe_s" "s" probe_s;
  put "job_norm_s" "s" (fastest *. probe_reference_s /. probe_s);
  put "alloc_mb_per_job" "MB"
    (median (List.map (fun c -> c.W.alloc_b /. 1e6) costs));
  put "peak_heap_mb" "MB"
    (median (List.map (fun c -> c.W.peak_heap_b /. 1e6) costs));
  put "commit_p50_ms" "ms" (med (fun o -> pct 50. o.W.latencies_ms));
  put "commit_p90_ms" "ms" (med (fun o -> pct 90. o.W.latencies_ms));
  put "block_period_ms" "ms" (med (fun o -> block_period o.W.timeline));
  let client p o =
    match o.W.clients with
    | Some c -> if p = 50. then c.W.client_p50_ms else c.W.client_p99_ms
    | None -> pct p (client_model o.W.timeline)
  in
  put "client_p50_ms" "ms" (med (client 50.));
  put "client_p99_ms" "ms" (med (client 99.));
  put "service_gap_ms" "ms" (med (fun o -> o.W.gap_ms))

(* Client commands are operations too: a rejected command failed. *)
let count_clients (outs : W.output list) =
  List.iter
    (fun o ->
      match o.W.clients with
      | Some c ->
          attempted := !attempted + c.W.submitted;
          failed := !failed + c.W.rejected
      | None -> ())
    outs

(* Jobs of one seed must agree exactly on every simulated output. *)
let check_repeat (outs : W.output list) =
  match outs with
  | [] -> ()
  | o :: rest ->
      if List.exists (fun o' -> o'.W.fingerprint <> o.W.fingerprint) rest then
        fail_op "repeated jobs of one seed produced different outputs"

(* {2 Per-layer metrics from one traced job} *)

(* Self time of handler and timer spans is [<name>.self_s]; of the env
   callbacks and codec calls, which sit inside those, [<name>_s]. *)
let self_metric name =
  if String.starts_with ~prefix:"handler." name || name = "timer" then
    name ^ ".self_s"
  else name ^ "_s"

let put_spans ~traced_wall ~base_wall =
  let t = Tracer.totals () in
  let self k = float_of_int t.Tracer.t_self_ns.(k) /. 1e9 in
  Array.iteri
    (fun k name ->
      put (self_metric name) "s" (self k);
      put (name ^ ".n") "count" (float_of_int t.Tracer.t_count.(k)))
    Tracer.names;
  put "codec.bytes" "B" (float_of_int t.Tracer.t_enc_bytes);
  let handlers =
    List.fold_left ( +. ) 0.
      (List.map self
         Tracer.[ k_handler_proposal; k_handler_vote; k_handler_timeout; k_handler_other ])
  in
  put "layers.handler_send_share" "ratio"
    ((handlers +. self Tracer.k_send +. self Tracer.k_multicast) /. traced_wall);
  put "trace.overhead_share" "ratio" ((traced_wall /. base_wall) -. 1.);
  t

(* Consensus traffic and GC cost of one untraced job. *)
let put_costs ~(o : W.output) ~(base_cost : W.cost) =
  let per x n = x /. float_of_int (max 1 n) in
  put "consensus.msgs_per_commit" "count" (per (float_of_int o.W.msgs) o.W.commits);
  put "consensus.bytes_per_commit" "B" (per (float_of_int o.W.bytes) o.W.commits);
  put "gc.alloc_bytes_per_msg" "B" (per base_cost.W.alloc_b o.W.msgs);
  put "gc.promoted_bytes_per_msg" "B" (per base_cost.W.promoted_b o.W.msgs);
  put "gc.minor_collections" "count" (float_of_int base_cost.W.minor_gcs);
  put "gc.major_collections" "count" (float_of_int base_cost.W.major_gcs)

let put_engine ~(o : W.output) ~base_wall ~(base_cost : W.cost) ~traced_wall
    (t : Tracer.totals) =
  put "engine.self_s" "s"
    (traced_wall -. (float_of_int t.Tracer.t_top_ns /. 1e9));
  put "engine.msgs" "count" (float_of_int o.W.msgs);
  put "engine.events" "count" (float_of_int o.W.events);
  put "engine.msgs_per_s" "1/s" (float_of_int o.W.msgs /. base_wall);
  put "engine.ns_per_msg" "ns" (base_wall *. 1e9 /. float_of_int o.W.msgs);
  put_costs ~o ~base_cost

(* {2 Set-up}

   One set-up builds the workload's world and takes it through its first
   step: a 1 ms simulated run (engine, latency model, nodes, ingestion
   state, start), a cluster booted to its first committed block, or the
   model checker's world expanded to depth 1.  [setup_s] is the median of
   [setups] of them, made before the first job. *)

let setups = 11

let wan_duration_ms = 4_000.
let clients_duration_ms = 16_000.

let net_wal_dir out_dir =
  let d = Filename.concat out_dir "wal" in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let setup ~workload ~seed ~out_dir () =
  let ok = function Ok _ -> Ok () | Error e -> Error e in
  match workload with
  | "wan-n200" -> Ok (ignore (Harness.run (W.wan_config ~seed ~duration_ms:1.)))
  | "clients-crash-n7" ->
      (* Below the first crash: the fault machinery is built but idle. *)
      Ok (ignore (Harness.run (W.clients_config ~seed ~duration_ms:1.)))
  | "net-localhost" -> ok (W.run_net ~blocks:1 ~wal_dir:(net_wal_dir out_dir) ())
  | _ ->
      Ok
        (ignore
           (Bft_mc.Checker.check ~jobs:1 Protocol_kind.Jolteon
              (W.mc_world ~max_depth:1 ())))

let put_setup ~workload ~seed ~out_dir =
  probes ();
  Gc.full_major ();
  let walls =
    List.init setups (fun _ ->
        snd (W.measure (fun () -> op (setup ~workload ~seed ~out_dir))))
  in
  put "setup_s" "s" (median (List.map (fun c -> c.W.wall_s) walls))

(* {2 Simulator workloads} *)

let sim_job ?trace cfg () = W.run_sim ?trace cfg

let timed_sim ~seconds cfg =
  let jobs = timed ~seconds ~min_jobs:2 (fun () -> op (sim_job cfg)) in
  let outs = List.map (fun ((_, o), _) -> o) jobs in
  check_repeat outs;
  (jobs, outs)

(* Untraced jobs for the window, then one traced job whose simulated
   outputs must match theirs exactly. *)
let traced_sim ~seconds ~out_dir ~tag cfg =
  let base, outs = timed_sim ~seconds cfg in
  Tracer.reset ~nodes:cfg.Config.n;
  match (base, op (sim_job ~trace:true cfg)) with
  | (_, base_cost) :: _, Some ((_, ot), tc) ->
      let o = List.hd outs in
      let base_wall = median (List.map (fun (_, c) -> c.W.wall_s) base) in
      if ot.W.fingerprint <> o.W.fingerprint then
        fail_op "traced run changed the simulated outputs";
      let traced_wall = tc.W.wall_s in
      put_engine ~o ~base_wall ~base_cost ~traced_wall
        (put_spans ~traced_wall ~base_wall);
      Tracer.write (Filename.concat out_dir (tag ^ "-spans.tsv"));
      Some (o, base_wall)
  | _ -> None

(* Wall ns per delivered message of one sibling job. *)
let sibling_ns_per_msg cfg =
  Option.map
    (fun ((_, o), c) -> c.W.wall_s *. 1e9 /. float_of_int (max 1 o.W.msgs))
    (op (sim_job cfg))

(* Mean one-way latency of the WAN table over the run's node pairs: the
   base of the zero-jitter sibling. *)
let mean_wan_latency n =
  let open Bft_workload.Regions in
  let s = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        s := !s +. latency_ms ~src:(region_of_node i) ~dst:(region_of_node j)
    done
  done;
  !s /. float_of_int (n * (n - 1))

let wan ~seed ~seconds ~trace ~out_dir =
  let cfg = W.wan_config ~seed ~duration_ms:wan_duration_ms in
  if not trace then begin
    let jobs, outs = timed_sim ~seconds cfg in
    if outs <> [] then put_e2e ~jobs outs
  end
  else
    match traced_sim ~seconds ~out_dir ~tag:"wan-n200" cfg with
    | None -> ()
    | Some (o, base_wall) ->
        let base = base_wall *. 1e9 /. float_of_int o.W.msgs in
        let toggle name sibling =
          Option.iter (fun ns -> put name "ns" (base -. ns))
            (sibling_ns_per_msg sibling)
        in
        toggle "latency.jitter_ns_per_msg"
          {
            cfg with
            Config.latency =
              Config.Uniform { base = mean_wan_latency cfg.Config.n; jitter = 0. };
          };
        toggle "network.bandwidth_ns_per_msg"
          { cfg with Config.bandwidth_bps = None };
        toggle "cpu_model.ns_per_msg" { cfg with Config.model_cpu = false }

let clients ~seed ~seconds ~trace ~out_dir =
  let cfg = W.clients_config ~seed ~duration_ms:clients_duration_ms in
  if not trace then begin
    let jobs, outs = timed_sim ~seconds cfg in
    count_clients outs;
    if outs <> [] then put_e2e ~jobs outs
  end
  else
    match traced_sim ~seconds ~out_dir ~tag:"clients-crash-n7" cfg with
    | None -> ()
    | Some (o, base_wall) -> (
        (match o.W.clients with
        | Some c ->
            put "mempool.admitted" "count" (float_of_int c.W.admitted);
            put "mempool.deferred" "count" (float_of_int c.W.deferred);
            put "mempool.rejected" "count" (float_of_int c.W.rejected);
            put "mempool.lane_spread" "ratio" c.W.lane_spread;
            let committed = c.W.submitted - c.W.rejected in
            Option.iter
              (fun (_, nc) ->
                put "mempool.ns_per_cmd" "ns"
                  ((base_wall -. nc.W.wall_s) *. 1e9
                  /. float_of_int (max 1 committed)))
              (op (sim_job { cfg with Config.clients = None }))
        | None -> fail_op "client summary missing");
        match o.W.recovery with
        | Some (catchup, heal, slack) ->
            put "sync.catchup_ms" "ms" catchup;
            put "faults.heal_msgs" "count" (float_of_int heal);
            put "liveness.min_slack_ms" "ms" slack
        | None -> fail_op "fault summary missing")

(* {2 Socket workload} *)

let net ~seconds ~trace ~out_dir =
  let wal_dir = net_wal_dir out_dir in
  let job ?trace () =
    match W.run_net ?trace ~blocks:W.net_blocks ~wal_dir () with
    | Ok ((_, o), _) as r ->
        Printf.eprintf "  cluster: commit p50 %.3f ms, period %.3f ms\n%!"
          (pct 50. o.W.latencies_ms) (block_period o.W.timeline);
        r
    | Error e -> Error ("net-localhost: " ^ e)
  in
  let base = timed ~seconds ~min_jobs:3 (fun () -> op job) in
  let outs = List.map (fun ((_, o), _) -> o) base in
  if not trace then (if outs <> [] then put_e2e ~jobs:base outs)
  else begin
    Tracer.reset ~nodes:4;
    match (base, op (job ~trace:true)) with
    | ((_, o), base_cost) :: _, Some ((res, ot), tc) ->
        let base_wall = median (List.map (fun (_, c) -> c.W.wall_s) base) in
        let traced_wall = tc.W.wall_s in
        ignore (put_spans ~traced_wall ~base_wall);
        let nodes = Array.length res.Bft_net.Tcp.nodes in
        let busy =
          List.fold_left
            (fun a s -> if s.Tracer.node >= 0 then a + s.Tracer.top_ns else a)
            0 (Tracer.all_stores ())
        in
        let busy_s = float_of_int busy /. 1e9 in
        put "net.busy_s" "s" busy_s;
        put "net.idle_share" "ratio"
          (1. -. (busy_s /. (float_of_int nodes *. traced_wall)));
        let sum f =
          float_of_int
            (Array.fold_left (fun a nr -> a + f nr) 0 res.Bft_net.Tcp.nodes)
        in
        put "net.frames" "count" (float_of_int ot.W.msgs);
        put "net.decode_errors" "count" (sum (fun nr -> nr.Bft_net.Tcp.decode_errors));
        put "net.reconnects" "count" (sum (fun nr -> nr.Bft_net.Tcp.reconnects));
        put "net.dropped" "count"
          (sum (fun nr -> Array.fold_left ( + ) 0 nr.Bft_net.Tcp.dropped_by_peer));
        put_costs ~o ~base_cost;
        Tracer.write (Filename.concat out_dir "net-localhost-spans.tsv")
    | _ -> ()
  end

(* {2 Model-checker workload} *)

let mc ~seed ~seconds ~trace =
  let exhaust () =
    let r, c = W.run_mc () in
    Result.map (fun () -> (r, c)) (W.check_mc r)
  in
  let jobs = timed ~seconds ~min_jobs:2 (fun () -> op exhaust) in
  (* The checker's world run forward on the simulator supplies the
     protocol outputs (latency, period, gap). *)
  let sim = op (sim_job (W.mc_sim_config ~seed)) in
  match (jobs, sim) with
  | (r, c) :: _, Some ((_, o), _) ->
      if not trace then put_e2e ~jobs [ o ]
      else begin
        let open Bft_mc.Mc_report in
        let st = r.stats in
        let wall = median (List.map (fun (_, c) -> c.W.wall_s) jobs) in
        put "mc.states" "count" (float_of_int st.states_visited);
        put "mc.transitions" "count" (float_of_int st.transitions);
        put "mc.matched" "count" (float_of_int st.states_matched);
        put "mc.reexpanded" "count" (float_of_int st.states_reexpanded);
        put "mc.sleep_skips" "count" (float_of_int st.sleep_skips);
        put "mc.states_per_s" "1/s" (float_of_int st.states_visited /. wall);
        put "mc.digest_prune_ratio" "ratio" (digest_prune_ratio st);
        put "mc.sleep_prune_ratio" "ratio" (sleep_prune_ratio st);
        put "gc.minor_collections" "count" (float_of_int c.W.minor_gcs);
        put "gc.major_collections" "count" (float_of_int c.W.major_gcs);
        (* Symmetry off, cut at the symmetric run's wall time: the states
           it reaches are a lower bound on the unreduced space. *)
        let t0 = Unix.gettimeofday () in
        let stop () = Unix.gettimeofday () -. t0 > wall in
        let b, _ = W.run_mc ~stop ~symmetry:false () in
        put "mc.symmetry_saving" "ratio"
          (1.
          -. float_of_int st.states_visited
             /. float_of_int (max 1 b.stats.states_visited))
      end
  | _ -> ()

(* {2 Self-test}

   On a small world (Commit Moonshot, n = 4, jittered links, client
   traffic, one crash and recovery) the wrapped protocol must be
   transparent: chain, simulated latencies and client summary identical
   to the unwrapped run.  Every logged span's self time must lie within
   [0, duration], and the post-hoc recomputation from parent links must
   match the online totals. *)

let selftest_config =
  {
    (Config.local Bft_runtime.Protocol_kind.Commit_moonshot ~n:4) with
    Config.duration_ms = 2_000.;
    seed = 11;
    faults =
      [
        Bft_faults.Fault_schedule.Crash { node = 2; at = 600. };
        Bft_faults.Fault_schedule.Recover { node = 2; at = 1_100. };
      ];
    clients =
      Some
        { Bft_mempool.Spec.default with Bft_mempool.Spec.rate_per_s = 3_000. };
  }

let selftest () =
  Tracer.reset ~nodes:selftest_config.Config.n;
  let check () =
    match (W.run_sim selftest_config, W.run_sim ~trace:true selftest_config) with
    | Error e, _ | _, Error e -> Error ("self-test: " ^ e)
    | Ok ((_, a), _), Ok ((_, b), _) ->
        if a.W.fingerprint <> b.W.fingerprint then
          Error "self-test: wrapped protocol changed the run's outputs"
        else if a.W.clients <> b.W.clients then
          Error "self-test: wrapped protocol changed the client summary"
        else
          let stores = Tracer.all_stores () in
          if List.for_all Tracer.audit_store stores
          then Ok ()
          else Error "self-test: span self times disagree with span durations"
  in
  ignore (op check)

(* {2 Output} *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Every measured metric, in measurement order (a later measurement of a
   name replaces an earlier one).  run.py picks the ones
   BENCHMARK.json names for the run's mode. *)
let print_result () =
  let rows =
    List.fold_left
      (fun acc ((n, _, _) as m) ->
        m :: List.filter (fun (n', _, _) -> not (String.equal n n')) acc)
      [] (List.rev !metrics)
    |> List.rev
  in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then fail_op (n ^ " is not finite"))
    rows;
  List.iter (fun (n, v, u) -> Printf.printf "%-28s %16.6f %s\n" n v u) rows;
  let body =
    String.concat ", "
      (List.filter_map
         (fun (n, v, u) ->
           if Float.is_finite v then
             Some (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
           else None)
         rows)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!checks_failed = 0) (max 1 !attempted) !failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out_dir = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out-dir", Arg.Set_string out_dir, "DIR span logs and WAL files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace = !trace = 1 and seconds = !seconds and seed = !seed in
  let workload = !workload and out_dir = !out_dir in
  if not trace then put_setup ~workload ~seed ~out_dir;
  (match workload with
  | "wan-n200" -> wan ~seed ~seconds ~trace ~out_dir
  | "clients-crash-n7" -> clients ~seed ~seconds ~trace ~out_dir
  | "net-localhost" -> net ~seconds ~trace ~out_dir
  | _ -> mc ~seed ~seconds ~trace);
  selftest ();
  print_result ()
