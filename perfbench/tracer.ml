(* Outside-in span tracer.

   [Wrap (P)] is a protocol module indistinguishable from [P] to every
   entry point that accepts a first-class [Protocol_intf.S] (the simulator
   harness, the TCP cluster, the model checker).  It times, from outside
   the libraries:

   - [handle], per [classify] class, and [start];
   - the env callbacks handed to the node: [send], [multicast], timer
     callbacks, [make_payload] (the mempool cut) and [on_commit];
   - [encode_msg], [decode_msg] and [wal_encode].

   Every span has a name, a start, an end and a parent.  Spans live in one
   store per node: a node's handler, callbacks and codec calls all run on
   one thread (the simulator's, or the node's executor thread in a threads
   mode TCP cluster), so no store is ever touched by two threads.  Self
   time (duration minus the part covered by child spans) is computed
   online with a per-store stack; the first [log_cap] spans of each store
   are also kept verbatim, with parent links, for {!write} and for the
   self-test's post-hoc recomputation. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Span names, indexed by kind. *)
let names =
  [|
    "handler.proposal"; "handler.vote"; "handler.timeout"; "handler.other";
    "timer"; "engine.send"; "engine.multicast"; "mempool.cut";
    "runtime.on_commit"; "codec.encode"; "codec.decode"; "wal.encode";
  |]

let kinds = Array.length names
let k_handler_proposal = 0
let k_handler_vote = 1
let k_handler_timeout = 2
let k_handler_other = 3
let k_timer = 4
let k_send = 5
let k_multicast = 6
let k_cut = 7
let k_on_commit = 8
let k_encode = 9
let k_decode = 10
let k_wal_encode = 11

let max_depth = 64

(* Spans logged per store: 2^20 over all nodes of a run. *)
let log_cap = ref 4096

type store = {
  node : int;
  mutable depth : int;
  st_kind : int array;
  st_start : int array;
  st_child : int array;  (* ns of this span covered by its children *)
  st_id : int array;  (* log index of the open span, -1 if not logged *)
  self_ns : int array;
  count : int array;
  mutable top_ns : int;  (* summed durations of parentless spans *)
  mutable seq : int;  (* spans opened so far (log index of the next one) *)
  mutable enc_bytes : int;  (* bytes produced by encode_msg *)
  log : int array;  (* 4 ints per logged span: kind, start, end, parent *)
}

let make_store node =
  {
    node;
    depth = 0;
    st_kind = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_id = Array.make max_depth (-1);
    self_ns = Array.make kinds 0;
    count = Array.make kinds 0;
    top_ns = 0;
    seq = 0;
    enc_bytes = 0;
    log = Array.make (4 * !log_cap) 0;
  }

let enter s k =
  let d = s.depth in
  if d >= max_depth then failwith "tracer: span stack overflow";
  let t = now_ns () in
  s.st_kind.(d) <- k;
  s.st_start.(d) <- t;
  s.st_child.(d) <- 0;
  let id = s.seq in
  s.seq <- id + 1;
  if id < !log_cap then begin
    let b = 4 * id in
    s.log.(b) <- k;
    s.log.(b + 1) <- t;
    s.log.(b + 2) <- t;
    s.log.(b + 3) <- (if d = 0 then -1 else s.st_id.(d - 1));
    s.st_id.(d) <- id
  end
  else s.st_id.(d) <- -1;
  s.depth <- d + 1

let leave s =
  let d = s.depth - 1 in
  let t = now_ns () in
  let k = s.st_kind.(d) in
  let dur = t - s.st_start.(d) in
  s.self_ns.(k) <- s.self_ns.(k) + dur - s.st_child.(d);
  s.count.(k) <- s.count.(k) + 1;
  (match s.st_id.(d) with -1 -> () | id -> s.log.((4 * id) + 2) <- t);
  if d = 0 then s.top_ns <- s.top_ns + dur
  else s.st_child.(d - 1) <- s.st_child.(d - 1) + dur;
  s.depth <- d

(* [f ()] inside a span of kind [k]; the span closes on exceptions too. *)
let timed s k f =
  enter s k;
  match f () with
  | r ->
      leave s;
      r
  | exception e ->
      leave s;
      raise e

(* {2 Store registry}

   Node stores are registered under the creating thread, so module-level
   codec functions (which get no node argument) find the store of the
   node whose thread calls them.  Calls from an unregistered thread (a
   coordinator, or the simulator before any node exists) land in a
   shared store with node id -1. *)

let lock = Mutex.create ()
let stores : store list ref = ref []
let by_thread : (int, store) Hashtbl.t = Hashtbl.create 16
let unattributed = ref (make_store (-1))

let reset ~nodes =
  log_cap := max 1024 ((1 lsl 20) / nodes);
  Mutex.lock lock;
  stores := [];
  Hashtbl.reset by_thread;
  unattributed := make_store (-1);
  Mutex.unlock lock

let register node =
  let s = make_store node in
  Mutex.lock lock;
  stores := s :: !stores;
  Hashtbl.replace by_thread (Thread.id (Thread.self ())) s;
  Mutex.unlock lock;
  s

let current () =
  Mutex.lock lock;
  let s =
    match Hashtbl.find_opt by_thread (Thread.id (Thread.self ())) with
    | Some s -> s
    | None -> !unattributed
  in
  Mutex.unlock lock;
  s

let all_stores () =
  Mutex.lock lock;
  let l = !unattributed :: !stores in
  Mutex.unlock lock;
  l

(* {2 Totals} *)

type totals = {
  t_self_ns : int array;
  t_count : int array;
  t_top_ns : int;
  t_enc_bytes : int;
}

let totals () =
  let self = Array.make kinds 0 and cnt = Array.make kinds 0 in
  let top = ref 0 and enc = ref 0 in
  List.iter
    (fun s ->
      if s.depth <> 0 then failwith "tracer: span left open";
      for k = 0 to kinds - 1 do
        self.(k) <- self.(k) + s.self_ns.(k);
        cnt.(k) <- cnt.(k) + s.count.(k)
      done;
      top := !top + s.top_ns;
      enc := !enc + s.enc_bytes)
    (all_stores ());
  { t_self_ns = self; t_count = cnt; t_top_ns = !top; t_enc_bytes = !enc }

(* Recompute self time from the logged spans of one store, by parent
   links alone.  True iff every span's self time lies in [0, duration]
   and, when the log holds every span, the recomputed totals equal the
   online ones. *)
let audit_store s =
  let n = min s.seq !log_cap in
  let child = Array.make n 0 in
  for i = 0 to n - 1 do
    let b = 4 * i in
    let p = s.log.(b + 3) in
    if p >= 0 then child.(p) <- child.(p) + (s.log.(b + 2) - s.log.(b + 1))
  done;
  let self = Array.make kinds 0 in
  let ok = ref true in
  for i = 0 to n - 1 do
    let b = 4 * i in
    let dur = s.log.(b + 2) - s.log.(b + 1) in
    let sf = dur - child.(i) in
    if sf < 0 || sf > dur then ok := false;
    self.(s.log.(b)) <- self.(s.log.(b)) + sf
  done;
  !ok && (s.seq > !log_cap || self = s.self_ns)

(* Write the logged spans as TSV: node, span id, parent id, name,
   start ns, end ns. *)
let write path =
  let oc = open_out path in
  output_string oc "node\tid\tparent\tname\tstart_ns\tend_ns\n";
  List.iter
    (fun s ->
      for i = 0 to min s.seq !log_cap - 1 do
        let b = 4 * i in
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" s.node i s.log.(b + 3)
          names.(s.log.(b)) s.log.(b + 1) s.log.(b + 2)
      done)
    (List.rev (all_stores ()));
  close_out oc

(* {2 The wrapper functor} *)

module Wrap (P : Bft_types.Protocol_intf.S) :
  Bft_types.Protocol_intf.S with type msg = P.msg and type wal = P.wal =
struct
  include (P : Bft_types.Protocol_intf.S with type msg = P.msg
                                          and type wal = P.wal
                                          and type node := P.node)

  type node = { inner : P.node; store : store }

  let handler_kind m =
    match P.classify m with
    | `Proposal -> k_handler_proposal
    | `Vote -> k_handler_vote
    | `Timeout -> k_handler_timeout
    | `Other -> k_handler_other

  let encode_msg m =
    let s = current () in
    let r = timed s k_encode (fun () -> P.encode_msg m) in
    s.enc_bytes <- s.enc_bytes + String.length r;
    r

  let decode_msg b = timed (current ()) k_decode (fun () -> P.decode_msg b)
  let wal_encode w = timed (current ()) k_wal_encode (fun () -> P.wal_encode w)

  let create ?equivocate ?wal (env : msg Bft_types.Env.t) =
    let s = register env.Bft_types.Env.id in
    let env =
      {
        env with
        Bft_types.Env.send =
          (fun dst m -> timed s k_send (fun () -> env.Bft_types.Env.send dst m));
        multicast =
          (fun m -> timed s k_multicast (fun () -> env.Bft_types.Env.multicast m));
        set_timer =
          (fun delay f ->
            env.Bft_types.Env.set_timer delay (fun () -> timed s k_timer f));
        make_payload =
          (fun ~view ~parent ->
            timed s k_cut (fun () -> env.Bft_types.Env.make_payload ~view ~parent));
        on_commit =
          (fun b -> timed s k_on_commit (fun () -> env.Bft_types.Env.on_commit b));
      }
    in
    { inner = P.create ?equivocate ?wal env; store = s }

  let start nd = timed nd.store k_handler_other (fun () -> P.start nd.inner)

  let handle nd ~src m =
    timed nd.store (handler_kind m) (fun () -> P.handle nd.inner ~src m)

  let state_hash nd = P.state_hash nd.inner
  let current_view nd = P.current_view nd.inner
  let lock_view nd = P.lock_view nd.inner
  let wal_consistent nd = P.wal_consistent nd.inner
end
