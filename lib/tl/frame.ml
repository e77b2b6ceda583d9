(** A state as a flat row of cells, one per slot (see frame.mli). *)

type t = Value.t array

(* Allocated at run time, so no other value can be physically equal. *)
let absent = Value.Sym (String.make 1 '\000')

let make n = Array.make n absent

let get names (f : t) s =
  let v = f.(s) in
  if v == absent then raise (State.Unbound names.(s)) else v

let to_state names (f : t) =
  let st = ref State.empty in
  Array.iteri (fun s v -> if v != absent then st := State.set names.(s) v !st) f;
  !st

let load names st (f : t) =
  Array.iteri
    (fun s name ->
      f.(s) <- (match State.find_opt name st with Some v -> v | None -> absent))
    names

let of_state names st =
  let f = make (Array.length names) in
  load names st f;
  f
