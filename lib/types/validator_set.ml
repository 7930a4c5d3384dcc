type t = { n : int; f : int }

let make n =
  if n < 1 then invalid_arg "Validator_set.make: need at least one node";
  { n; f = (n - 1) / 3 }

let quorum t = t.n - t.f
let commit_quorum t = (2 * t.f) + 1
let weak_quorum t = t.f + 1
let is_member t i = i >= 0 && i < t.n
let round_robin t =
  let n = t.n in
  fun view -> (((view - 1) mod n) + n) mod n
let pp ppf t = Format.fprintf ppf "validators(n=%d, f=%d)" t.n t.f
