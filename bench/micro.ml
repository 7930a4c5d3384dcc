(* Bechamel micro-benchmarks of the hot paths under the simulation: block
   hashing, vote aggregation, event-queue churn, block-store ancestry, the
   commit path at two chain heights.  These are per-operation costs,
   printed in nanoseconds; the two multicast+drain rows are per delivered
   message, with allocated bytes. *)

open Bechamel
open Toolkit
open Bft_types

(* A straight chain of [len] blocks on top of genesis, oldest first. *)
let chain_of len =
  let rec go acc parent view =
    if view > len then List.rev acc
    else
      let b =
        Block.create ~parent ~view ~proposer:(view mod 4)
          ~payload:(Payload.make ~id:view ~size_bytes:0)
      in
      go (b :: acc) b (view + 1)
  in
  go [] Block.genesis 1

let chain = ref []
let setup () = chain := chain_of 64

let test_block_create =
  Test.make ~name:"block-create+hash"
    (Staged.stage (fun () ->
         let parent = List.hd !chain in
         ignore
           (Block.create ~parent ~view:(parent.Block.view + 1) ~proposer:1
              ~payload:(Payload.make ~id:99 ~size_bytes:0))))

let test_vote_aggregation =
  Test.make ~name:"vote-aggregation(n=100,q=67)"
    (Staged.stage (fun () ->
         let acc = Bft_crypto.Accumulator.create ~n:100 ~threshold:67 in
         for signer = 0 to 66 do
           ignore (Bft_crypto.Accumulator.add acc () ~signer)
         done))

let test_event_queue =
  Test.make ~name:"event-queue push+pop x64"
    (Staged.stage (fun () ->
         let q = Bft_sim.Event_queue.create () in
         for i = 0 to 63 do
           Bft_sim.Event_queue.push q ~time:(float_of_int (i * 7 mod 64)) i
         done;
         while not (Bft_sim.Event_queue.is_empty q) do
           ignore (Bft_sim.Event_queue.pop q)
         done))

let test_store_ancestry =
  Test.make ~name:"block-store ancestry depth 64"
    (Staged.stage (fun () ->
         let store = Bft_chain.Block_store.create () in
         List.iter (fun b -> ignore (Bft_chain.Block_store.insert store b)) !chain;
         let tip = List.nth !chain 63 in
         ignore
           (Bft_chain.Block_store.is_ancestor store ~ancestor:Block.genesis
              ~of_:tip)))

(* Node_core.commit of the next block on a node whose committed chain is
   already [height] blocks long; a per-commit cost that grows with height
   shows up as two diverging rows.  A commit cannot be undone, so this row
   is not a bechamel closure: each round rebuilds the node untimed, then
   times [commit_window] fresh commits one at a time on the monotonic
   clock, and the median of [commit_rounds] rounds is printed. *)
let commit_window = 256
let commit_rounds = 31

let commit_at_height ~name height =
  let blocks = Array.of_list (chain_of (height + commit_window + 1)) in
  let env : unit Env.t =
    {
      Env.id = 0;
      validators = Validator_set.make 4;
      delta = 100.;
      now = (fun () -> 0.);
      send = (fun _ () -> ());
      multicast = ignore;
      set_timer = (fun _ _ () -> ());
      leader_of = (fun view -> view mod 4);
      make_payload = (fun ~view ~parent:_ -> Payload.make ~id:view ~size_bytes:0);
      on_commit = ignore;
      on_propose = ignore;
      probe = None;
    }
  in
  let clock = Toolkit.Monotonic_clock.make () in
  (* The setup commits [height] blocks in one call, which fills the commit
     log's array exactly, so the next commit regrows it with an O(height)
     copy; a chain grown one block at a time amortizes that copy away, so
     the setup makes that first commit too. *)
  let round () =
    let core = Moonshot.Node_core.create env in
    Array.iter (Moonshot.Node_core.note_block core) blocks;
    Moonshot.Node_core.commit core blocks.(height - 1);
    Moonshot.Node_core.commit core blocks.(height);
    Gc.full_major ();
    let t0 = Toolkit.Monotonic_clock.get clock in
    for i = height + 1 to height + commit_window do
      Moonshot.Node_core.commit core blocks.(i)
    done;
    (Toolkit.Monotonic_clock.get clock -. t0) /. float_of_int commit_window
  in
  let per_commit = Array.init commit_rounds (fun _ -> round ()) in
  Array.sort compare per_commit;
  Format.printf "%-36s %12.1f ns/op@." name per_commit.(commit_rounds / 2)

let test_signer_set =
  Test.make ~name:"signer-set add x200"
    (Staged.stage (fun () ->
         let s = Bft_crypto.Signer_set.create ~n:200 in
         for i = 0 to 199 do
           ignore (Bft_crypto.Signer_set.add s i)
         done))

let test_signer_set_to_list =
  Test.make ~name:"signer-set to_list (n=200, q=134)"
    (Staged.stage
       (let s = Bft_crypto.Signer_set.create ~n:200 in
        for i = 0 to 133 do
          ignore (Bft_crypto.Signer_set.add s i)
        done;
        fun () -> ignore (Bft_crypto.Signer_set.to_list s)))

(* The engine's real hot path: one multicast fans out to n - 1 network
   sends plus a self delivery, and draining the queue processes them all.
   This prices the whole send -> queue -> dispatch pipeline, not just
   queue churn. *)
let test_engine_multicast =
  Test.make ~name:"engine multicast+drain n=200"
    (Staged.stage
       (let net =
          Bft_sim.Network.make
            ~latency:(Bft_sim.Latency.Uniform { base = 10.; jitter = 0. })
            ~delta:50. ()
        in
        let e =
          Bft_sim.Engine.create ~n:200 ~network:net ~seed:1
            ~msg_size:(fun (_ : int) -> 100)
            ()
        in
        for i = 0 to 199 do
          Bft_sim.Engine.set_handler e i (fun ~src:_ _ -> ())
        done;
        fun () ->
          Bft_sim.Engine.multicast e ~src:0 7;
          Bft_sim.Engine.run e ~until:(Bft_sim.Engine.now e +. 1000.)))

let trace_event i =
  {
    Bft_obs.Trace.time = float_of_int i;
    node = i mod 4;
    kind =
      Bft_obs.Trace.Node_event
        (Probe.Vote_sent { view = i; height = i; kind = "normal" });
  }

let test_trace_emit =
  Test.make ~name:"trace emit x64 (enabled)"
    (Staged.stage (fun () ->
         let t = Bft_obs.Trace.create () in
         for i = 0 to 63 do
           Bft_obs.Trace.emit t (trace_event i)
         done))

(* The price an untraced run pays per probe site: the [Env.tracing]
   check, one None comparison; the event is never built. *)
let test_probe_disabled =
  Test.make ~name:"probe emit x64 (disabled env)"
    (Staged.stage (fun () ->
         let probe : (Probe.event -> unit) option = None in
         for i = 0 to 63 do
           match probe with
           | None -> ()
           | Some f -> f (Probe.Timeout_sent { view = i })
         done))

(* One n = 200 multicast drained through the real engine, in the units of
   the perfbench ledger: wall ns and allocated bytes per delivered
   message.  The zero-jitter row takes the constant-arrival fan; the WAN
   row is the paper's setting — Table II latencies with jitter, 10 Gbit/s
   egress and a per-vote CPU cost — where every fan is sorted and every
   copy queues on its receiver's CPU.  Senders rotate so the WAN row sees
   every region pair.  Median of [multicast_rounds] windows. *)
let multicast_rounds = 15
let multicast_window = 400

let multicast_per_msg ~name ?bandwidth_bps ?cpu_cost latency =
  let n = 200 in
  let net =
    Bft_sim.Network.make ?bandwidth_bps ~latency
      ~delta:(Bft_sim.Latency.upper_bound latency) ()
  in
  let e =
    Bft_sim.Engine.create ~n ~network:net ~seed:1
      ~msg_size:(fun (_ : int) -> 100)
      ?cpu_cost ()
  in
  let delivered = ref 0 in
  for i = 0 to n - 1 do
    Bft_sim.Engine.set_handler e i (fun ~src:_ _ -> incr delivered)
  done;
  let multicasts k =
    for src = 0 to k - 1 do
      Bft_sim.Engine.multicast e ~src:(src mod n) 7;
      Bft_sim.Engine.run e ~until:(Bft_sim.Engine.now e +. 1000.)
    done
  in
  multicasts n;
  let clock = Toolkit.Monotonic_clock.make () in
  let window () =
    let d0 = !delivered and w0 = Gc.minor_words () in
    let t0 = Toolkit.Monotonic_clock.get clock in
    multicasts multicast_window;
    let ns = Toolkit.Monotonic_clock.get clock -. t0 in
    let msgs = float_of_int (!delivered - d0) in
    (* [Gc.minor_words] is exact at any point; [Gc.allocated_bytes] only
       advances at minor collections, which the tuned 32 M-word minor heap
       makes rarer than one per window. *)
    let words = Gc.minor_words () -. w0 in
    let bytes = words *. float_of_int (Sys.word_size / 8) in
    (ns /. msgs, bytes /. msgs)
  in
  let runs = Array.init multicast_rounds (fun _ -> window ()) in
  Array.sort compare runs;
  let ns, bytes = runs.(multicast_rounds / 2) in
  Format.printf "%-36s %12.1f ns/msg %8.1f B/msg@." name ns bytes

let multicast_rows () =
  multicast_per_msg ~name:"multicast+drain n=200 zero jitter"
    (Bft_sim.Latency.Uniform { base = 10.; jitter = 0. });
  multicast_per_msg ~name:"multicast+drain n=200 WAN+bw+cpu"
    ~bandwidth_bps:Bft_workload.Regions.bandwidth_bps
    ~cpu_cost:(fun _ -> Cpu_model.verify_signatures 1)
    (Bft_workload.Regions.latency_model ())

(* Ancestry last, so the commit-path rows [run] prints after these sit
   next to it. *)
let tests =
  [
    test_block_create; test_vote_aggregation; test_event_queue;
    test_engine_multicast; test_signer_set; test_signer_set_to_list;
    test_trace_emit; test_probe_disabled; test_store_ancestry;
  ]

let run () =
  setup ();
  Format.printf "@.== Micro-benchmarks (per-op cost, monotonic clock) ==@.@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Format.printf "%-36s %12.1f ns/op@." name est
          | Some [] | None -> Format.printf "%-36s (no estimate)@." name)
        analyzed)
    tests;
  multicast_rows ();
  commit_at_height ~name:"node-core commit at height 1k" 1_000;
  commit_at_height ~name:"node-core commit at height 10k" 10_000
