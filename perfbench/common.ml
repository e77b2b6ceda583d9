(* Shared helpers of the benchmark: parallel width, clocks, quantiles,
   scratch directories under the working directory, provenance, and the
   result record every workload returns. *)

(* ------------------------------------------------------------------ *)
(* Clocks and statistics                                               *)

let now = Obs.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank quantile of a non-empty sample: the smallest value with
   at least [q * n] samples at or below it. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)

(* [nproc] as the shell reports it (it honours CPU affinity, which
   [Domain.recommended_domain_count] does not); falls back to the OCaml
   count when the command is unavailable. *)
let nproc =
  lazy
    (match Unix.open_process_args_in "nproc" [| "nproc" |] with
    | ic ->
        let line = try Some (input_line ic) with End_of_file -> None in
        ignore (Unix.close_process_in ic);
        Option.value ~default:(Domain.recommended_domain_count ())
          (Option.bind line (fun l -> int_of_string_opt (String.trim l)))
    | exception Unix.Unix_error _ -> Domain.recommended_domain_count ())

(* Parallel width P: domains, worker processes, daemon lanes and client
   connections are all sized by it. *)
let width () = max 1 (min 4 (Lazy.force nproc))

(* ------------------------------------------------------------------ *)
(* Scratch space: everything the benchmark writes lives under [.bench/]
   in the working directory; a run's scratch directory is removed when
   the run ends. *)

let bench_dir = ".bench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh directory for this process, removed at exit. Relative, so
   Unix socket paths inside it stay short wherever the checkout lives. *)
let scratch =
  lazy
    (let d = Filename.concat bench_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
     rm_rf d;
     mkdir_p d;
     at_exit (fun () -> try rm_rf d with _ -> ());
     d)

let dirs_made = ref 0

(* A new, empty subdirectory of the scratch directory. *)
let fresh_dir tag =
  incr dirs_made;
  let d = Filename.concat (Lazy.force scratch) (Printf.sprintf "%s-%d" tag !dirs_made) in
  mkdir_p d;
  d

let file_size path = (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* Process facts                                                       *)

(* Peak resident set size of this process ([VmHWM]), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> go ())
      in
      go ())

(* Filesystem type of the mount holding [dir] (longest mount-point
   prefix of its real path in /proc/self/mounts). *)
let fs_type dir =
  let real = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  match open_in "/proc/self/mounts" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let best = ref ("", "unknown") in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | _ :: mnt :: fstype :: _ ->
               let prefix = if mnt = "/" then "/" else mnt ^ "/" in
               if (real = mnt || String.starts_with ~prefix real)
                  && String.length mnt > String.length (fst !best)
               then best := (mnt, fstype)
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      snd !best

(* Only asked of a checkout's own repository: git would otherwise report
   whatever repository encloses a plain source tree. *)
let git_rev () =
  if not (Sys.file_exists ".git") then "none"
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short=12"; "HEAD" |] with
    | exception Unix.Unix_error _ -> "none"
    | ic -> (
        let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, Some l -> l
        | _ -> "none")

(* One line of provenance: a timing is only comparable with another one
   taken on the same hardware, toolchain and filesystem. *)
let provenance () =
  Printf.sprintf "nproc=%d width=%d ocaml=%s git=%s fs=%s" (Lazy.force nproc)
    (width ()) Sys.ocaml_version (git_rev ())
    (fs_type (Lazy.force scratch))

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;  (** operations the run attempted *)
  failed : int;  (** operations that failed or returned wrong output *)
  checks : (string * bool) list;  (** named output checks *)
  notes : (string * string) list;  (** digests and facts worth printing *)
  metrics : metric list;
}

let correct r = r.failed = 0 && List.for_all snd r.checks

(* A workload after its set-up: the timed phase, and the teardown a
   set-up-only process runs before it exits. *)
type session = { measure : seconds:float -> result; teardown : unit -> unit }

(* Closed-loop repetitions [f 0], [f 1], ...: at least [min_reps], then
   more while the next one, taking as long as the last, would still end
   within [seconds] of the start. *)
let timebox ~seconds ~min_reps f =
  let t0 = now () in
  let rec go i last =
    let t = now () in
    if i < min_reps || t +. last -. t0 <= seconds then begin
      f i;
      go (i + 1) (now () -. t)
    end
  in
  go 0 0.

(* Fatal harness error: the run cannot measure anything. *)
exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt
