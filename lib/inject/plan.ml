(** An injection plan: a campaign seed plus the faults to interpose.

    The plan is pure, closure-free data — it marshals deterministically, so
    {!Scenarios.Runner} folds it straight into the outcome-cache digest: an
    identical (scenario, plan) pair is never re-simulated.

    Determinism contract: fault [i] draws from the private generator seeded
    [Prng.derive seed i]; every run builds fresh interposer state from the
    plan, so sequential and parallel executions of the same plan produce
    bit-for-bit identical traces. *)


type t = { seed : int; faults : Fault.t list }

let make ?(seed = 0) faults = { seed; faults }
let empty = { seed = 0; faults = [] }
let is_empty p = p.faults = []

(* Fresh per-run fault state; fault [i] owns a PRNG seeded [derive seed i]. *)
let runtimes plan =
  List.mapi (fun i f -> Fault.runtime ~seed:(Prng.derive plan.seed i) f) plan.faults

(** [interposer ~dt plan] — a stateful snapshot transform for one run.
    Faults are applied in plan order. *)
let interposer ~dt plan =
  let rts = runtimes plan in
  fun ~now state -> List.fold_left (fun st rt -> Fault.apply rt ~dt ~now st) state rts

(** [frame_interposer ~dt plan ~slot] — the same faults on the kernel's
    frames: each target is resolved to its slot once, and every tick
    rewrites the slot's cell through {!Fault.interpose}. A target with no
    slot, or not yet written, is a no-op, as in {!interposer}. *)
let frame_interposer ~dt plan ~slot =
  let bound =
    List.filter_map
      (fun (f, rt) -> Option.map (fun s -> (s, rt)) (slot f.Fault.target))
      (List.combine plan.faults (runtimes plan))
  in
  let slots = Array.of_list (List.map fst bound) in
  let rts = Array.of_list (List.map snd bound) in
  fun ~now (frame : Tl.Frame.t) ->
    for k = 0 to Array.length slots - 1 do
      let s = slots.(k) in
      let v = frame.(s) in
      if v != Tl.Frame.absent then begin
        let v' = Fault.interpose rts.(k) ~dt ~now v in
        if v' != v then frame.(s) <- v'
      end
    done

let pp ppf p =
  Fmt.pf ppf "@[<h>seed=%d %a@]" p.seed
    (Fmt.list ~sep:Fmt.sp Fault.pp)
    p.faults

let to_string p = Fmt.str "%a" pp p
