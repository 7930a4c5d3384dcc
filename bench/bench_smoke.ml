(* CI perf tripwire for the simulator core.

   Re-measures the acceptance micro-benchmark — one n = 200 multicast fanned
   out and drained through the real engine (send -> queue -> dispatch; with
   uniform zero-jitter links every copy arrives at once, so this is the
   constant-arrival fan) — and compares events/second against the
   [bench_smoke] block of the committed BENCH_simcore.json.  A regression
   past [tolerance] fails the run (and with it the @bench-smoke alias on
   `dune runtest`), so an accidental allocation or indirection on the hot
   path is caught in seconds instead of at the next full evaluation.

   Wall-clock thresholds on shared CI boxes are inherently noisy, hence the
   generous 30 % tolerance, best-of-[windows] measurement, and the
   MOONSHOT_BENCH_SMOKE=skip escape hatch for machines slower than the one
   that produced the committed baseline. *)

let n = 200
let ops_per_window = 20_000
let windows = 3

(* Regression trips when measured < tolerance * baseline. *)
let tolerance = 0.7

let make_engine () =
  let net =
    Bft_sim.Network.make
      ~latency:(Bft_sim.Latency.Uniform { base = 10.; jitter = 0. })
      ~delta:50. ()
  in
  let e =
    Bft_sim.Engine.create ~n ~network:net ~seed:1
      ~msg_size:(fun (_ : int) -> 100)
      ()
  in
  for i = 0 to n - 1 do
    Bft_sim.Engine.set_handler e i (fun ~src:_ _ -> ())
  done;
  e

(* One window: [ops_per_window] multicast+drain rounds, [n] delivered
   events each.  Returns (wall seconds, events, bytes allocated). *)
let window () =
  let e = make_engine () in
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ops_per_window do
    Bft_sim.Engine.multicast e ~src:0 7;
    Bft_sim.Engine.run e ~until:(Bft_sim.Engine.now e +. 1000.)
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  (wall_s, ops_per_window * n, int_of_float alloc)

(* Minimal forward scan for ["key": <number>] inside [json] starting at
   [from]; no yojson in the dependency set, and the reader only needs one
   numeric field out of a file this binary itself wrote. *)
let find_number json ~key ~from =
  let needle = "\"" ^ key ^ "\":" in
  let nlen = String.length needle in
  let jlen = String.length json in
  let rec seek i =
    if i + nlen > jlen then None
    else if String.sub json i nlen = needle then
      let start = i + nlen in
      let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' in
      let b = ref start in
      while !b < jlen && json.[!b] = ' ' do incr b done;
      let e = ref !b in
      while !e < jlen && is_num json.[!e] do incr e done;
      if !e > !b then float_of_string_opt (String.sub json !b (!e - !b))
      else None
    else seek (i + 1)
  in
  seek from

let baseline_events_per_sec path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | json -> (
      let block = "\"bench_smoke\"" in
      let blen = String.length block in
      let jlen = String.length json in
      let rec seek i =
        if i + blen > jlen then None
        else if String.sub json i blen = block then Some i
        else seek (i + 1)
      in
      match seek 0 with
      | None -> None
      | Some at -> find_number json ~key:"events_per_sec" ~from:at)

(* Returns [false] iff a baseline was found and the measurement regressed
   past tolerance (and the escape hatch is not set). *)
let run ~baseline =
  Format.printf "@.== bench-smoke: engine multicast+drain n=%d ==@.@." n;
  let best = ref None in
  let total_events = ref 0 in
  let total_alloc = ref 0 in
  for _ = 1 to windows do
    let wall_s, events, alloc = window () in
    total_events := !total_events + events;
    total_alloc := !total_alloc + alloc;
    let eps = float_of_int events /. wall_s in
    (match !best with
    | Some (b, _) when b >= eps -> ()
    | _ -> best := Some (eps, wall_s));
    Format.printf "  window: %.3f s, %d events, %.2e events/s@." wall_s
      events eps
  done;
  let eps, best_wall = Option.get !best in
  let bytes_per_event =
    float_of_int !total_alloc /. float_of_int !total_events
  in
  Format.printf "  best:   %.2e events/s, %.1f alloc bytes/event@." eps
    bytes_per_event;
  Bench_report.set_smoke
    {
      Bench_report.smoke_wall_s = best_wall;
      smoke_events = ops_per_window * n;
      smoke_alloc_bytes =
        int_of_float (bytes_per_event *. float_of_int (ops_per_window * n));
    };
  let skip =
    match Sys.getenv_opt "MOONSHOT_BENCH_SMOKE" with
    | Some "skip" -> true
    | Some _ | None -> false
  in
  match baseline with
  | None ->
      Format.printf "  no baseline given; recording only@.";
      true
  | Some path -> (
      match baseline_events_per_sec path with
      | None ->
          Format.printf
            "  warning: no bench_smoke baseline in %s; recording only@." path;
          true
      | Some base ->
          let floor_eps = tolerance *. base in
          let ok = eps >= floor_eps in
          Format.printf "  baseline %.2e events/s (%s); floor %.2e -> %s@."
            base path floor_eps
            (if ok then "ok"
             else if skip then "REGRESSION (ignored: MOONSHOT_BENCH_SMOKE=skip)"
             else "REGRESSION");
          ok || skip)
