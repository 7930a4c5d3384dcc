type stats = {
  mutable events_processed : int;
  mutable messages_sent : int;
  mutable bytes_sent : int;
}

(* The event heap orders entries by (time, seq), and most of what it holds
   is message traffic: a view's O(n^2) votes.  Three kinds of entry keep
   that traffic small in the heap without changing the order in which
   anything is delivered.

   A [Msg] cell is one unicast, self hand-off or captured event.  Cells are
   pooled mutable records carrying (src, dst, dst_epoch, msg), each
   allocated together with its [Msg] wrapper (tied by [c_ev]), so steady
   state traffic re-enqueues them with zero allocations: when a message
   executes, its cell returns to a per-engine free stack.

   A [Fan] is one uncaptured multicast.  At send time it computes all n - 1
   network arrivals in destination order — the RNG draws for filter, drop,
   latency, pre-GST delay and duplication happen exactly as n - 1 separate
   sends would make them — and gives copy k the sequence number the k-th
   separate push would have taken.  The arrivals are kept in two flat
   arrays, sorted by (arrival, seq): the fan sits in the heap keyed by its
   head, delivers the copies that arrive at that instant, and re-keys
   itself to the next one ([Event_queue.replace_top]).  Merging sorted
   streams through a heap pops in the same order as one heap entry per
   copy, so the schedule is bit for bit the per-copy one.  When every copy
   arrives at the same instant (uniform latency without jitter, no
   bandwidth, drop, duplication, filter or delay overlay) the arrival is
   one constant, computed once, and the whole fan drains in one step.

   A [Ring] is one node's CPU queue (when a CPU cost model is installed).
   A message whose processing finishes in the future waits in its
   destination's FIFO ring; a node's finish times never decrease and seqs
   are taken at enqueue, so the ring is sorted by (finish, seq) and one
   heap entry, its head, stands for all of it.  The exception is a crash,
   which resets the node's CPU queue: a later finish can then fall below
   the ring's tail, and such a message becomes a standalone [Msg] cell.

   Timers and one-off scheduled actions are inherently code, so those arms
   keep a closure.  Under a capture hook (the model checker) every message
   copy is its own [Msg] cell, as the hook's owner orders them one by one.

   On the paper's n = 200 WAN setting this keeps the heap at about 2,200
   entries where one entry per copy and per CPU task held about 73,000.

   Message cells, fan copies and ring slots carry the destination's
   incarnation epoch at enqueue time: crashing a node bumps its epoch, so
   in-flight events addressed to the previous incarnation are dropped on
   execution instead of resurrecting state the crash was supposed to
   lose. *)
type 'msg event =
  | Msg of 'msg cell
  | Fan of 'msg fan
  | Ring of 'msg ring
  | Timer of timer
  | Thunk of (unit -> unit)

and 'msg cell = {
  mutable c_src : int;
  mutable c_dst : int;
  mutable c_epoch : int;
  (* [true]: hand to the handler (CPU queue already paid, or not modelled);
     [false]: network arrival — run through [dst]'s serial CPU queue. *)
  mutable c_deliver : bool;
  mutable c_msg : 'msg;
  c_ev : 'msg event;  (* this cell's own [Msg] wrapper, allocated once *)
}

and 'msg fan = {
  mutable f_src : int;
  mutable f_msg : 'msg;
  mutable f_seq0 : int;  (* copy k's seq is [f_seq0 + k] *)
  mutable f_next : int;  (* sorted position of the next delivery *)
  mutable f_count : int;
  (* Every copy arrives at [f_times.(0)]: the rest of [f_times] is unset. *)
  mutable f_constant : bool;
  (* Parallel, sorted by (arrival, copy index); pooled with the fan and
     sized to the fan-out (grown only by duplicated copies). *)
  mutable f_times : float array;
  mutable f_slots : int array;
      (* [(epoch lsl epoch_shift) lor (k lsl node_bits) lor dst] *)
  f_ev : 'msg event;
}

and 'msg ring = {
  r_dst : int;
  mutable r_head : int;
  mutable r_len : int;
  (* Circular, capacity a power of two; [r_msg] is [[||]] until the first
     message supplies a fill value. *)
  mutable r_finish : float array;
  mutable r_seq : int array;
  mutable r_from : int array;  (* [(epoch lsl node_bits) lor src] *)
  mutable r_msg : 'msg array;
  r_ev : 'msg event;
}

and timer = {
  mutable cancelled : bool;
  owner : int;  (* -1 = unowned; survives crashes *)
  epoch : int;
  action : unit -> unit;
}

(* Packed slot fields.  A node index takes [node_bits]; a fan's copy index
   (at most 2 (n - 1) with duplication) one bit more; the epoch the bits
   above.  Comparing [slot land order_mask] compares copy indices. *)
let node_bits = 20
let node_mask = (1 lsl node_bits) - 1
let epoch_shift = (2 * node_bits) + 1
let order_mask = (1 lsl epoch_shift) - 1
let max_epoch = (1 lsl (62 - epoch_shift)) - 1
let[@inline] fan_slot ~epoch ~copy ~dst =
  (epoch lsl epoch_shift) lor (copy lsl node_bits) lor dst

let[@inline] copy_of slot = (slot land order_mask) lsr node_bits

type 'msg pending = 'msg event

type 'msg pending_view =
  | Pending_message of { src : int; dst : int; msg : 'msg }
  | Pending_timer of { owner : int }
  | Pending_task

type 'msg t = {
  n : int;
  network : Network.t;
  queue : 'msg event Event_queue.t;
  handlers : (src:int -> 'msg -> unit) array;
  node_rngs : Rng.t array;
  net_rng : Rng.t;
  egress_free : float array;
  cpu_free : float array;
  cpu_rings : 'msg ring array;
  msg_size : 'msg -> int;
  cpu_cost : ('msg -> float) option;
  mutable clock : float;
  (* Arrival times of one unicast (and its duplicate): written in place by
     [arrivals] so no float crosses a call boxed. *)
  arrival : float array;
  (* Fault state: [down.(i)] quenches node [i]'s sends, deliveries and
     timers; [epochs.(i)] counts its incarnations so events and timers from
     before a crash stay dead after recovery. *)
  down : bool array;
  epochs : int array;
  (* Free stacks for message cells and fans.  The engine is single-threaded,
     so one pool serves all nodes; it grows to the steady-state number of
     in-flight messages and then every send is allocation-free.  Pooling is
     disabled under a capture hook — the hook's owner holds events across
     dispatches. *)
  mutable cell_pool : 'msg cell array;
  mutable cell_pool_len : int;
  mutable fan_pool : 'msg fan array;
  mutable fan_pool_len : int;
  (* The filter, delay overlay and tap default to no-ops; the [_installed]
     flags let the per-message path skip the indirect call entirely in the
     common uninstrumented, unpartitioned run. *)
  mutable filter : src:int -> dst:int -> now:float -> bool;
  mutable filter_installed : bool;
  mutable delay : src:int -> dst:int -> now:float -> float;
  mutable delay_installed : bool;
  mutable tap : time:float -> src:int -> dst:int -> 'msg -> unit;
  mutable tap_installed : bool;
  (* An external scheduler: when installed, every event that would enter the
     time-ordered queue is handed to the hook instead, and the hook's owner
     decides when (and whether) to [dispatch] it.  This is what lets the
     model checker explore arbitrary delivery/firing orders through the same
     engine the experiments run on. *)
  mutable capture : ('msg event -> unit) option;
  mutable capture_installed : bool;
  stats : stats;
}

(* [Float.max] is a cross-module call with NaN/signed-zero handling; clock
   and queue times are finite and non-negative here, so a two-way compare
   is equivalent on the hot path. *)
let fmax (a : float) (b : float) = if a < b then b else a

let create ~n ~network ~seed ~msg_size ?cpu_cost () =
  if n < 1 then invalid_arg "Engine.create: n < 1";
  if n > node_mask then invalid_arg "Engine.create: n too large";
  let root = Rng.create seed in
  {
    n;
    network;
    queue = Event_queue.create ();
    handlers = Array.make n (fun ~src:_ _ -> ());
    node_rngs = Array.init n (fun _ -> Rng.split root);
    net_rng = Rng.split root;
    egress_free = Array.make n 0.;
    cpu_free = Array.make n 0.;
    cpu_rings =
      (if cpu_cost = None then [||]
       else
         Array.init n (fun dst ->
             let rec r =
               {
                 r_dst = dst;
                 r_head = 0;
                 r_len = 0;
                 r_finish = [||];
                 r_seq = [||];
                 r_from = [||];
                 r_msg = [||];
                 r_ev = Ring r;
               }
             in
             r));
    msg_size;
    cpu_cost;
    clock = 0.;
    arrival = Array.make 2 0.;
    down = Array.make n false;
    epochs = Array.make n 0;
    cell_pool = [||];
    cell_pool_len = 0;
    fan_pool = [||];
    fan_pool_len = 0;
    filter = (fun ~src:_ ~dst:_ ~now:_ -> true);
    filter_installed = false;
    delay = (fun ~src:_ ~dst:_ ~now:_ -> 0.);
    delay_installed = false;
    tap = (fun ~time:_ ~src:_ ~dst:_ _ -> ());
    tap_installed = false;
    capture = None;
    capture_installed = false;
    stats = { events_processed = 0; messages_sent = 0; bytes_sent = 0 };
  }

let set_handler t i h = t.handlers.(i) <- h

(* {2 Pools} *)

let fresh_cell ~src ~dst ~epoch ~deliver msg =
  let rec c =
    {
      c_src = src;
      c_dst = dst;
      c_epoch = epoch;
      c_deliver = deliver;
      c_msg = msg;
      c_ev = Msg c;
    }
  in
  c.c_ev

let acquire_cell t ~src ~dst ~epoch ~deliver msg =
  let len = t.cell_pool_len in
  if len > 0 then begin
    let c = Array.unsafe_get t.cell_pool (len - 1) in
    t.cell_pool_len <- len - 1;
    c.c_src <- src;
    c.c_dst <- dst;
    c.c_epoch <- epoch;
    c.c_deliver <- deliver;
    c.c_msg <- msg;
    c.c_ev
  end
  else fresh_cell ~src ~dst ~epoch ~deliver msg

let release_cell t c =
  if not t.capture_installed then begin
    let len = t.cell_pool_len in
    if len = Array.length t.cell_pool then begin
      let pool = Array.make (if len = 0 then 8 else 2 * len) c in
      Array.blit t.cell_pool 0 pool 0 len;
      t.cell_pool <- pool
    end;
    Array.unsafe_set t.cell_pool len c;
    t.cell_pool_len <- len + 1
  end

(* Fans only exist on the captureless path, so acquisition never consults
   the capture flag. *)
let acquire_fan t ~src msg =
  let len = t.fan_pool_len in
  if len > 0 then begin
    let f = Array.unsafe_get t.fan_pool (len - 1) in
    t.fan_pool_len <- len - 1;
    f.f_src <- src;
    f.f_msg <- msg;
    f
  end
  else
    let rec f =
      {
        f_src = src;
        f_msg = msg;
        f_seq0 = 0;
        f_next = 0;
        f_count = 0;
        f_constant = false;
        f_times = Array.make (t.n - 1) 0.;
        f_slots = Array.make (t.n - 1) 0;
        f_ev = Fan f;
      }
    in
    f

let release_fan t f =
  let len = t.fan_pool_len in
  if len = Array.length t.fan_pool then begin
    let pool = Array.make (if len = 0 then 4 else 2 * len) f in
    Array.blit t.fan_pool 0 pool 0 len;
    t.fan_pool <- pool
  end;
  Array.unsafe_set t.fan_pool len f;
  t.fan_pool_len <- len + 1

(* Message-event scheduling at [times.(k)] with the next seq: pooled cells
   when the engine owns ordering, fresh cells under a capture hook (whose
   owner may hold them indefinitely). *)
let enqueue_msg t times k ~src ~dst ~epoch ~deliver msg =
  match t.capture with
  | None ->
      let seq = Event_queue.reserve_seqs t.queue 1 in
      Event_queue.push_keyed t.queue times k ~seq
        (acquire_cell t ~src ~dst ~epoch ~deliver msg)
  | Some f -> f (fresh_cell ~src ~dst ~epoch ~deliver msg)

let set_capture t f =
  t.capture <- Some f;
  t.capture_installed <- true

let inspect = function
  | Msg c -> Pending_message { src = c.c_src; dst = c.c_dst; msg = c.c_msg }
  | Fan _ | Ring _ ->
      (* Fans and rings are never created under a capture hook, and only
         captured events are inspectable. *)
      assert false
  | Timer tm -> Pending_timer { owner = tm.owner }
  | Thunk _ -> Pending_task

let set_link_filter t f =
  t.filter <- f;
  t.filter_installed <- true

let set_link_delay t f =
  t.delay <- f;
  t.delay_installed <- true

let set_delivery_tap t f =
  t.tap <- f;
  t.tap_installed <- true
let now t = t.clock
let n t = t.n
let node_rng t i = t.node_rngs.(i)

let check_node t name i =
  if i < 0 || i >= t.n then invalid_arg ("Engine." ^ name ^ ": node out of range")

let is_down t i =
  check_node t "is_down" i;
  t.down.(i)

(* Crashing loses all volatile state: the handler is detached, in-flight
   events and pending timers die via the epoch bump, and any CPU backlog is
   forgotten.  The node's durable state (a WAL, if the protocol keeps one)
   lives outside the engine. *)
let crash t i =
  check_node t "crash" i;
  if not t.down.(i) then begin
    if t.epochs.(i) = max_epoch then
      invalid_arg "Engine.crash: too many incarnations";
    t.down.(i) <- true;
    t.epochs.(i) <- t.epochs.(i) + 1;
    t.handlers.(i) <- (fun ~src:_ _ -> ());
    t.cpu_free.(i) <- 0.
  end

(* Recovery only clears the down flag; the caller installs a fresh handler
   (a node rebuilt from durable state) and starts it. *)
let recover t i =
  check_node t "recover" i;
  t.down.(i) <- false

let deliver t ~src ~dst ~epoch msg =
  if (not (Array.unsafe_get t.down dst))
     && Array.unsafe_get t.epochs dst = epoch
  then begin
    if t.tap_installed then t.tap ~time:t.clock ~src ~dst msg;
    t.handlers.(dst) ~src msg
  end

(* {2 CPU rings} *)

let grow_ring r msg =
  let cap = Array.length r.r_finish in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let finish = Array.make cap' 0. and seq = Array.make cap' 0 in
  let from = Array.make cap' 0 and msgs = Array.make cap' msg in
  (* Unroll the live window to the front. *)
  for k = 0 to r.r_len - 1 do
    let i = (r.r_head + k) land (cap - 1) in
    finish.(k) <- r.r_finish.(i);
    seq.(k) <- r.r_seq.(i);
    from.(k) <- r.r_from.(i);
    msgs.(k) <- r.r_msg.(i)
  done;
  r.r_head <- 0;
  r.r_finish <- finish;
  r.r_seq <- seq;
  r.r_from <- from;
  r.r_msg <- msgs

(* Queue a message on [dst]'s CPU until [cpu_free.(dst)], its finish time
   (captureless path).  The seq is taken now, as a push would. *)
let queue_cpu t ~src ~dst ~epoch msg =
  let r = Array.unsafe_get t.cpu_rings dst in
  let seq = Event_queue.reserve_seqs t.queue 1 in
  let len = r.r_len in
  if
    len > 0
    && Array.unsafe_get t.cpu_free dst
       < r.r_finish.((r.r_head + len - 1) land (Array.length r.r_finish - 1))
  then
    (* Below the tail: the node crashed with a backlog since the tail was
       queued.  Keep the ring sorted; this message goes on its own. *)
    Event_queue.push_keyed t.queue t.cpu_free dst ~seq
      (acquire_cell t ~src ~dst ~epoch ~deliver:true msg)
  else begin
    if len = Array.length r.r_finish then grow_ring r msg;
    let i = (r.r_head + len) land (Array.length r.r_finish - 1) in
    Array.unsafe_set r.r_finish i (Array.unsafe_get t.cpu_free dst);
    Array.unsafe_set r.r_seq i seq;
    Array.unsafe_set r.r_from i ((epoch lsl node_bits) lor src);
    Array.unsafe_set r.r_msg i msg;
    r.r_len <- len + 1;
    if len = 0 then Event_queue.push_keyed t.queue r.r_finish i ~seq r.r_ev
  end

(* Run the message through [dst]'s serial CPU queue before handing it to the
   handler; invoked at the message's network arrival time. *)
let process t ~src ~dst ~epoch msg =
  if (not (Array.unsafe_get t.down dst))
     && Array.unsafe_get t.epochs dst = epoch
  then
    match t.cpu_cost with
    | None -> deliver t ~src ~dst ~epoch msg
    | Some cost ->
        let start = fmax t.clock (Array.unsafe_get t.cpu_free dst) in
        let finish = start +. cost msg in
        Array.unsafe_set t.cpu_free dst finish;
        if finish <= t.clock then deliver t ~src ~dst ~epoch msg
        else if t.capture_installed then
          enqueue_msg t t.cpu_free dst ~src ~dst ~epoch ~deliver:true msg
        else queue_cpu t ~src ~dst ~epoch msg

(* {2 Sends} *)

(* The network arrivals of one non-self copy, with the RNG draws in their
   fixed order: filter, drop, latency (and pre-GST delay), delay overlay,
   duplication.  Writes them to [times.(k)] (and [times.(k + 1)] for a
   duplicate, which trails the original slightly) and returns how many it
   wrote: 0, 1 or 2. *)
let arrivals t ~src ~dst ~size times k =
  if t.filter_installed && not (t.filter ~src ~dst ~now:t.clock) then 0
  else
    let net = t.network in
    let drop = net.Network.drop_prob in
    if drop > 0. && Rng.float t.net_rng 1. < drop then 0
    else begin
      let arrival =
        Network.delivery_into net t.net_rng ~now:t.clock ~egress:t.egress_free
          ~src ~dst ~size
      in
      let arrival =
        if t.delay_installed then arrival +. t.delay ~src ~dst ~now:t.clock
        else arrival
      in
      Array.unsafe_set times k arrival;
      let dup = net.Network.duplicate_prob in
      if dup > 0. && Rng.float t.net_rng 1. < dup then begin
        let lag = Rng.float t.net_rng (0.5 *. net.Network.delta) in
        Array.unsafe_set times (k + 1) (arrival +. lag);
        2
      end
      else 1
    end

(* One network send, one [Msg] cell per copy, with the byte size already
   computed and accounted. *)
let send_sized t ~src ~dst ~size msg =
  if Array.unsafe_get t.down src then ()
  else if dst = src then begin
    (* Local hand-off: no serialization, no propagation, no CPU charge. *)
    Array.unsafe_set t.arrival 0 t.clock;
    enqueue_msg t t.arrival 0 ~src ~dst
      ~epoch:(Array.unsafe_get t.epochs dst)
      ~deliver:true msg
  end
  else
    let copies = arrivals t ~src ~dst ~size t.arrival 0 in
    let epoch = Array.unsafe_get t.epochs dst in
    for k = 0 to copies - 1 do
      enqueue_msg t t.arrival k ~src ~dst ~epoch ~deliver:false msg
    done

let send t ~src ~dst msg =
  if Array.unsafe_get t.down src then ()
  else begin
    let size = t.msg_size msg in
    t.stats.messages_sent <- t.stats.messages_sent + 1;
    t.stats.bytes_sent <- t.stats.bytes_sent + size;
    send_sized t ~src ~dst ~size msg
  end

let[@inline] fan_before (times : float array) (slots : int array) i j =
  let ti = Array.unsafe_get times i and tj = Array.unsafe_get times j in
  ti < tj
  || ti = tj
     && Array.unsafe_get slots i land order_mask
        < Array.unsafe_get slots j land order_mask

let fan_swap (times : float array) (slots : int array) i j =
  let ti = Array.unsafe_get times i and si = Array.unsafe_get slots i in
  Array.unsafe_set times i (Array.unsafe_get times j);
  Array.unsafe_set slots i (Array.unsafe_get slots j);
  Array.unsafe_set times j ti;
  Array.unsafe_set slots j si

(* Sort [lo, hi] of a fan's parallel arrays by (arrival, copy index):
   quicksort with a median-of-three pivot, insertion sort below 8. *)
let rec sort_fan (times : float array) (slots : int array) lo hi =
  if hi - lo < 8 then
    for i = lo + 1 to hi do
      let t0 = Array.unsafe_get times i and s0 = Array.unsafe_get slots i in
      let o0 = s0 land order_mask in
      let j = ref (i - 1) in
      while
        !j >= lo
        &&
        let tj = Array.unsafe_get times !j in
        t0 < tj || (t0 = tj && o0 < Array.unsafe_get slots !j land order_mask)
      do
        Array.unsafe_set times (!j + 1) (Array.unsafe_get times !j);
        Array.unsafe_set slots (!j + 1) (Array.unsafe_get slots !j);
        decr j
      done;
      Array.unsafe_set times (!j + 1) t0;
      Array.unsafe_set slots (!j + 1) s0
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if fan_before times slots mid lo then fan_swap times slots mid lo;
    if fan_before times slots hi lo then fan_swap times slots hi lo;
    if fan_before times slots hi mid then fan_swap times slots hi mid;
    let pt = Array.unsafe_get times mid in
    let po = Array.unsafe_get slots mid land order_mask in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while
        let ti = Array.unsafe_get times !i in
        ti < pt || (ti = pt && Array.unsafe_get slots !i land order_mask < po)
      do
        incr i
      done;
      while
        let tj = Array.unsafe_get times !j in
        pt < tj || (tj = pt && po < Array.unsafe_get slots !j land order_mask)
      do
        decr j
      done;
      if !i <= !j then begin
        fan_swap times slots !i !j;
        incr i;
        decr j
      end
    done;
    sort_fan times slots lo !j;
    sort_fan times slots !i hi
  end

(* Whether every copy of [src]'s next fan-out arrives at one instant. *)
let constant_fan t ~src =
  let net = t.network in
  (not t.filter_installed)
  && (not t.delay_installed)
  && net.Network.bandwidth_bps = None
  && net.Network.drop_prob = 0.
  && net.Network.duplicate_prob = 0.
  && (match net.Network.latency with
     | Latency.Uniform { jitter; _ } -> jitter <= 0.
     | Latency.Matrix _ -> false)
  && (net.Network.pre_gst_extra = 0.
     || fmax t.clock (Array.unsafe_get t.egress_free src) >= net.Network.gst)

(* The captureless multicast: the n - 1 copies as one [Fan] heap entry. *)
let fan_out t ~src ~size msg =
  let f = acquire_fan t ~src msg in
  let count = ref 0 in
  f.f_constant <- constant_fan t ~src;
  if f.f_constant then begin
    (* Zero serialization time: the egress link frees at [start], matching
       n - 1 [Network.delivery_into] calls, and each copy arrives [base]
       later. *)
    let start = fmax t.clock (Array.unsafe_get t.egress_free src) in
    Array.unsafe_set t.egress_free src start;
    (match t.network.Network.latency with
    | Latency.Uniform { base; _ } ->
        Array.unsafe_set f.f_times 0 (start +. base)
    | Latency.Matrix _ -> assert false);
    let slots = f.f_slots in
    for dst = 0 to t.n - 1 do
      if dst <> src then begin
        let k = !count in
        Array.unsafe_set slots k
          (fan_slot ~epoch:(Array.unsafe_get t.epochs dst) ~copy:k ~dst);
        count := k + 1
      end
    done
  end
  else begin
    let sorted = ref true in
    let may_dup = t.network.Network.duplicate_prob > 0. in
    for dst = 0 to t.n - 1 do
      if dst <> src then begin
        let k = !count in
        if may_dup && k + 2 > Array.length f.f_times then begin
          let cap = 2 * Array.length f.f_times in
          let times = Array.make cap 0. and slots = Array.make cap 0 in
          Array.blit f.f_times 0 times 0 k;
          Array.blit f.f_slots 0 slots 0 k;
          f.f_times <- times;
          f.f_slots <- slots
        end;
        let times = f.f_times in
        let copies = arrivals t ~src ~dst ~size times k in
        if copies > 0 then begin
          let epoch = Array.unsafe_get t.epochs dst in
          for c = k to k + copies - 1 do
            Array.unsafe_set f.f_slots c (fan_slot ~epoch ~copy:c ~dst);
            if
              c > 0
              && Array.unsafe_get times c < Array.unsafe_get times (c - 1)
            then sorted := false
          done;
          count := k + copies
        end
      end
    done;
    if not !sorted then sort_fan f.f_times f.f_slots 0 (!count - 1)
  end;
  let count = !count in
  if count = 0 then release_fan t f
  else begin
    f.f_count <- count;
    f.f_next <- 0;
    f.f_seq0 <- Event_queue.reserve_seqs t.queue count;
    Event_queue.push_keyed t.queue f.f_times 0
      ~seq:(f.f_seq0 + copy_of (Array.unsafe_get f.f_slots 0))
      f.f_ev
  end

let multicast t ~src msg =
  if Array.unsafe_get t.down src then ()
  else begin
    (* The wire size is per-message, not per-destination: compute it and the
       traffic accounting once for the whole fan-out.  The local self
       hand-off is not a network send (no serialization, no propagation),
       so it is excluded from the traffic stats: n - 1 copies hit the
       wire. *)
    let size = t.msg_size msg in
    let fanout = t.n - 1 in
    t.stats.messages_sent <- t.stats.messages_sent + fanout;
    t.stats.bytes_sent <- t.stats.bytes_sent + (size * fanout);
    send_sized t ~src ~dst:src ~size msg;
    if fanout > 0 then
      if t.capture_installed then
        for dst = 0 to t.n - 1 do
          if dst <> src then send_sized t ~src ~dst ~size msg
        done
      else fan_out t ~src ~size msg
  end

let enqueue t ~time ev =
  match t.capture with
  | None -> Event_queue.push t.queue ~time ev
  | Some f -> f ev

let set_timer ?(owner = -1) t delay f =
  if delay < 0. then invalid_arg "Engine.set_timer: negative delay";
  let epoch = if owner >= 0 then t.epochs.(owner) else 0 in
  let tm = { cancelled = false; owner; epoch; action = f } in
  enqueue t ~time:(t.clock +. delay) (Timer tm);
  fun () -> tm.cancelled <- true

let schedule_at t time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  enqueue t ~time (Thunk f)

let timer_live t tm =
  (not tm.cancelled)
  && (tm.owner < 0
     || ((not t.down.(tm.owner)) && t.epochs.(tm.owner) = tm.epoch))

(* {2 Execution} *)

(* A standalone event, already off the heap (or dispatched by a capture
   hook's owner). *)
let exec t = function
  | Msg c ->
      (* Read the cell into locals, then release it before running protocol
         code: a handler's own sends may immediately reclaim it. *)
      let src = c.c_src
      and dst = c.c_dst
      and epoch = c.c_epoch
      and is_deliver = c.c_deliver in
      let msg = c.c_msg in
      release_cell t c;
      if is_deliver then deliver t ~src ~dst ~epoch msg
      else process t ~src ~dst ~epoch msg
  | Fan _ | Ring _ -> assert false (* never captured; see [inspect] *)
  | Timer tm -> if timer_live t tm then tm.action ()
  | Thunk f -> f ()

(* The fan at the heap's top delivers the run of copies that arrive at
   its head's instant.  Those copies pop consecutively whatever else is
   queued: the fan's seqs are one contiguous block, so no other entry can
   sort between two of its copies of equal time, and whatever the handlers
   schedule takes a later seq.  A constant-arrival fan therefore drains in
   one step.  The entry is re-keyed to the next copy (or removed) before
   protocol code runs, so handlers see a consistent heap; a drained fan is
   recycled only after the loop, as a handler's own multicast may acquire
   a fan. *)
let fan_step t f =
  let times = f.f_times and slots = f.f_slots and count = f.f_count in
  let first = f.f_next in
  let time = Array.unsafe_get times first in
  let next =
    if f.f_constant then count
    else begin
      let next = ref (first + 1) in
      while !next < count && Array.unsafe_get times !next = time do
        incr next
      done;
      !next
    end
  in
  if next < count then begin
    f.f_next <- next;
    Event_queue.replace_top t.queue times next
      ~seq:(f.f_seq0 + copy_of (Array.unsafe_get slots next))
  end
  else ignore (Event_queue.take t.queue : 'msg event);
  let src = f.f_src and msg = f.f_msg in
  (* The run loop counted the first copy. *)
  t.stats.events_processed <- t.stats.events_processed + (next - first - 1);
  for k = first to next - 1 do
    let slot = Array.unsafe_get slots k in
    process t ~src ~dst:(slot land node_mask) ~epoch:(slot lsr epoch_shift)
      msg
  done;
  if next = count then release_fan t f

(* The CPU ring at the heap's top hands its head to the handler. *)
let ring_step t r =
  let h = r.r_head in
  let from = Array.unsafe_get r.r_from h and msg = Array.unsafe_get r.r_msg h in
  let len = r.r_len - 1 in
  r.r_len <- len;
  if len > 0 then begin
    let h = (h + 1) land (Array.length r.r_finish - 1) in
    r.r_head <- h;
    Event_queue.replace_top t.queue r.r_finish h
      ~seq:(Array.unsafe_get r.r_seq h)
  end
  else ignore (Event_queue.take t.queue : 'msg event);
  deliver t ~src:(from land node_mask) ~dst:r.r_dst ~epoch:(from lsr node_bits)
    msg

let pending_live t = function
  | Msg c -> (not t.down.(c.c_dst)) && t.epochs.(c.c_dst) = c.c_epoch
  | Fan _ | Ring _ -> assert false (* never captured; see [inspect] *)
  | Timer tm -> timer_live t tm
  | Thunk _ -> true

let dispatch t ev =
  t.stats.events_processed <- t.stats.events_processed + 1;
  exec t ev

let advance_clock t time =
  if time < t.clock then invalid_arg "Engine.advance_clock: time in the past";
  t.clock <- time

(* Each delivered message is one event, whether it came from a cell, a fan
   or a ring ([fan_step] counts the rest of its run). *)
let run t ~until =
  let q = t.queue in
  let rec loop () =
    if Event_queue.is_empty q then
      (* The run nominally reaches [until] even when no event is left:
         leaving the clock at the last event's time would make a
         subsequent [now] or [set_timer] act in the past. *)
      t.clock <- fmax t.clock until
    else begin
      let time = Event_queue.min_time q in
      if time > until then t.clock <- until
      else begin
        t.clock <- time;
        t.stats.events_processed <- t.stats.events_processed + 1;
        (match Event_queue.top q with
        | Fan f -> fan_step t f
        | Ring r -> ring_step t r
        | (Msg _ | Timer _ | Thunk _) as ev ->
            ignore (Event_queue.take q : 'msg event);
            exec t ev);
        loop ()
      end
    end
  in
  loop ()

let stats t = t.stats
