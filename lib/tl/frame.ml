(** A state as a flat row of cells, one per slot, plus the log of the
    slots that changed (see frame.mli). *)

type t = {
  cells : Value.t array;
  log : int array;  (** the logged slots: the first [logged] entries *)
  mutable logged : int;
  marks : Bytes.t;  (** byte [s] is 1 while slot [s] is in the log *)
}

(* Allocated at run time, so no other value can be physically equal. *)
let absent = Value.Sym (String.make 1 '\000')

let make n =
  {
    cells = Array.make n absent;
    log = Array.make n 0;
    logged = 0;
    marks = Bytes.make n '\000';
  }

let[@inline] cell f s = f.cells.(s)

let get names f s =
  let v = f.cells.(s) in
  if v == absent then raise (State.Unbound names.(s)) else v

(* [marks] and [log] are as long as [cells], which checks [s], and a slot
   enters the log at most once before it is emptied. *)
let[@inline] set f s v =
  let cells = f.cells in
  if cells.(s) != v then begin
    cells.(s) <- v;
    if Bytes.unsafe_get f.marks s = '\000' then begin
      Bytes.unsafe_set f.marks s '\001';
      Array.unsafe_set f.log f.logged s;
      f.logged <- f.logged + 1
    end
  end

let[@inline] logged f = f.logged
let[@inline] logged_slot f k = f.log.(k)

let copy_logged ~src f =
  for k = 0 to f.logged - 1 do
    Bytes.unsafe_set f.marks (Array.unsafe_get f.log k) '\000'
  done;
  f.logged <- 0;
  let cells = f.cells in
  for k = 0 to src.logged - 1 do
    let s = Array.unsafe_get src.log k in
    cells.(s) <- Array.unsafe_get src.cells s
  done

let to_state names f =
  let st = ref State.empty in
  Array.iteri (fun s v -> if v != absent then st := State.set names.(s) v !st) f.cells;
  !st

let load names st f =
  Array.iteri
    (fun s name ->
      set f s (match State.find_opt name st with Some v -> v | None -> absent))
    names

let of_state names st =
  let f = make (Array.length names) in
  load names st f;
  f
