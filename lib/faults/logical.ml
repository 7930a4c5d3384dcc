module FS = Fault_schedule

type window = { from_v : int; until_v : int; group_of : int array }

type t = {
  n : int;
  crash_of : int option array; (* node -> crash view *)
  recover_of : int option array; (* node -> observer recover view *)
  windows : window list;
}

let observer _ = 0

(* Anchors are written as float times in the schedule; a logical reading
   takes the nearest integer view.  Generated schedules use exact
   integers; hand-written ones survive decimal noise. *)
let view_of_time at = int_of_float (Float.round at)

let of_schedule ~n (sched : FS.t) =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let crash_of = Array.make n None in
  let recover_of = Array.make n None in
  let windows = ref [] in
  let rec go = function
    | [] -> Ok ()
    | ev :: rest -> (
        match ev with
        | FS.Link_loss _ | FS.Delay_spike _ ->
            err "logical schedules cannot contain loss/delay windows"
        | FS.Crash { node; at } ->
            if node = 0 then err "logical schedules cannot crash the observer"
            else if node < 0 || node >= n then
              err "crash targets node %d (n = %d)" node n
            else if crash_of.(node) <> None then
              err "node %d crashes twice; one cycle per node" node
            else begin
              crash_of.(node) <- Some (view_of_time at);
              go rest
            end
        | FS.Recover { node; at } ->
            if node < 0 || node >= n then
              err "recover targets node %d (n = %d)" node n
            else if crash_of.(node) = None then
              err "node %d recovers without a crash" node
            else if recover_of.(node) <> None then
              err "node %d recovers twice" node
            else begin
              recover_of.(node) <- Some (view_of_time at);
              go rest
            end
        | FS.Partition { groups; from_; until } ->
            let group_of = Array.make n (-1) in
            List.iteri
              (fun g members ->
                List.iter
                  (fun m -> if m >= 0 && m < n then group_of.(m) <- g)
                  members)
              groups;
            windows :=
              {
                from_v = view_of_time from_;
                until_v = view_of_time until;
                group_of;
              }
              :: !windows;
            go rest)
  in
  match go (FS.sorted sched) with
  | Error _ as e -> e
  | Ok () ->
      (* A recover anchored at or before the crash can fire before the
         victim is even down; insist on strict ordering. *)
      let bad =
        List.find_opt
          (fun i ->
            match (crash_of.(i), recover_of.(i)) with
            | Some c, Some r -> r <= c
            | _ -> false)
          (List.init n (fun i -> i))
      in
      (match bad with
      | Some i ->
          err "node %d: recover anchor must be strictly after the crash" i
      | None -> Ok { n; crash_of; recover_of; windows = List.rev !windows })

let of_schedule_exn ~n sched =
  match of_schedule ~n sched with
  | Ok t -> t
  | Error e -> invalid_arg ("Logical.of_schedule: " ^ e)

let crash_anchor t node = t.crash_of.(node)
let recover_anchor t node = t.recover_of.(node)

let recoveries t =
  List.filter_map
    (fun i -> Option.map (fun v -> (v, i)) t.recover_of.(i))
    (List.init t.n (fun i -> i))
  |> List.sort compare

type triggers = {
  lg : t;
  crashed : bool array;
  recov : (int * int) array;  (* [recoveries] *)
  mutable released : int;  (* recoveries released so far *)
}

let triggers t =
  {
    lg = t;
    crashed = Array.make t.n false;
    recov = Array.of_list (recoveries t);
    released = 0;
  }

let crash_due tr ~node ~incarnation ~view =
  incarnation = 0
  && (not tr.crashed.(node))
  &&
  match tr.lg.crash_of.(node) with
  | Some v when view >= v ->
      tr.crashed.(node) <- true;
      true
  | _ -> false

let recoveries_due tr ~node ~view =
  let rec go acc =
    let i = tr.released in
    if i < Array.length tr.recov && fst tr.recov.(i) <= view then begin
      tr.released <- i + 1;
      go ((i, snd tr.recov.(i)) :: acc)
    end
    else List.rev acc
  in
  if node = observer tr.lg then go [] else []

let cut t ~src ~src_view ~dst =
  src <> dst
  && List.exists
       (fun w ->
         src_view >= w.from_v && src_view < w.until_v
         && w.group_of.(src) <> w.group_of.(dst))
       t.windows

let cut_any t ~src ~src_view =
  List.exists
    (fun w ->
      src_view >= w.from_v && src_view < w.until_v
      && Array.exists (fun g -> g <> w.group_of.(src)) w.group_of)
    t.windows

let last_anchor t =
  let m = ref 0 in
  let bump = function Some v -> if v > !m then m := v | None -> () in
  Array.iter bump t.crash_of;
  Array.iter bump t.recover_of;
  List.iter (fun w -> if w.until_v > !m then m := w.until_v) t.windows;
  !m

(* [bump_anchor v ~victim ~n] — smallest [v' >= v] leaving the round-robin
   victim (who leads the views [w] with [w = victim + 1 (mod n)], per
   {!Bft_workload.Schedules.leader_of}) at least two views before its next
   leader slot.  Applied to every anchor that touches the victim:

   - the {e crash} anchor, because the event in which the victim's view
     reaches the anchor is its last — were the victim leader of the next
     view, that event may or may not contain the optimistic proposal for
     it depending on how deliveries batched, and the chain would hinge on
     event granularity rather than on the protocol;
   - the {e recover} anchor and the {e window end}, so the victim has two
     clean views to catch up via Sync before it must propose.

   Terminates within [n] steps. *)
let bump_anchor v ~victim ~n =
  let rec go v =
    if (((victim + 1 - v) mod n) + n) mod n >= 2 then v else go (v + 1)
  in
  go v

let random ~rng ~n =
  if n < 4 then invalid_arg "Logical.random: n < 4";
  let pick_victim () = 1 + Bft_sim.Rng.int rng (n - 1) in
  let vc = pick_victim () and vp = pick_victim () in
  (* Crash/recover cycle first, partition window after a slack gap. *)
  let crash_v = bump_anchor (3 + Bft_sim.Rng.int rng n) ~victim:vc ~n in
  let recover_v =
    bump_anchor (crash_v + 2 + Bft_sim.Rng.int rng n) ~victim:vc ~n
  in
  let part_from = recover_v + 3 + Bft_sim.Rng.int rng 3 in
  let part_until =
    bump_anchor (part_from + 1 + Bft_sim.Rng.int rng n) ~victim:vp ~n
  in
  let rest = List.filter (fun i -> i <> vp) (List.init n (fun i -> i)) in
  FS.sorted
    [
      FS.Crash { node = vc; at = float_of_int crash_v };
      FS.Recover { node = vc; at = float_of_int recover_v };
      FS.Partition
        {
          groups = [ [ vp ]; rest ];
          from_ = float_of_int part_from;
          until = float_of_int part_until;
        };
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>observer 0";
  Array.iteri
    (fun i c ->
      match c with
      | None -> ()
      | Some v ->
          Format.fprintf ppf "@,node %d: crash at view %d%a" i v
            (fun ppf -> function
              | Some r -> Format.fprintf ppf ", recover at observer view %d" r
              | None -> Format.fprintf ppf ", never recovers")
            t.recover_of.(i))
    t.crash_of;
  List.iter
    (fun w ->
      Format.fprintf ppf "@,partition views [%d, %d)" w.from_v w.until_v)
    t.windows;
  Format.fprintf ppf "@]"
