(** CSV export of scenario traces, figure series and violation tables, for
    external plotting of the regenerated figures. *)

open Tl

let escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let value_to_csv = function
  | Value.Bool b -> if b then "1" else "0"
  | Value.Int i -> string_of_int i
  | Value.Float f -> Fmt.str "%g" f
  | Value.Sym s -> escape s

(** [trace_csv ?signals ?stride trace] — one row per (strided) state, one
    column per signal (default: every variable of the first state, sorted).
    Only the strided states (indices divisible by [stride]) are
    materialized. @raise Invalid_argument when [stride = 0]. *)
let trace_csv ?signals ?(stride = 1) (trace : Trace.t) : string =
  if stride = 0 then invalid_arg "Export.trace_csv: stride must be non-zero";
  let step = abs stride in
  let signals =
    match signals with
    | Some s -> s
    | None -> List.sort compare (State.vars (Trace.get trace 0))
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ("time," ^ String.concat "," (List.map escape signals) ^ "\n");
  let rec rows i =
    if i < Trace.length trace then begin
      let s = Trace.get trace i in
      Buffer.add_string buf (Fmt.str "%g" (Trace.time trace i));
      List.iter
        (fun v ->
          Buffer.add_char buf ',';
          Buffer.add_string buf
            (match State.find_opt v s with Some x -> value_to_csv x | None -> ""))
        signals;
      Buffer.add_char buf '\n';
      rows (i + step)
    end
  in
  rows 0;
  Buffer.contents buf

(** [figure_csv fig outcome] — the figure's signals over its window, one row
    per sample. *)
let figure_csv (fig : Figures.t) (o : Runner.outcome) : string =
  let window = fig.Figures.window o in
  let series =
    List.map
      (fun (var, label) ->
        (label, Figures.extract ~max_points:2000 o.Runner.trace window var label))
      fig.Figures.signals
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    ("time," ^ String.concat "," (List.map (fun (l, _) -> escape l) series) ^ "\n");
  (match series with
  | [] -> ()
  | (_, first) :: _ ->
      List.iteri
        (fun i (t, _) ->
          Buffer.add_string buf (Fmt.str "%g" t);
          List.iter
            (fun (_, s) ->
              Buffer.add_char buf ',';
              match List.nth_opt s.Figures.points i with
              | Some (_, v) -> Buffer.add_string buf (Fmt.str "%g" v)
              | None -> ())
            series;
          Buffer.add_char buf '\n')
        first.Figures.points);
  Buffer.contents buf

(** [violations_csv outcome] — one row per violation with its location, id,
    timing and classification. *)
let violations_csv (o : Runner.outcome) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "scenario,location,id,goal,start_s,duration_ms,class\n";
  List.iter
    (fun (r : Vehicle.Monitors.result) ->
      List.iter
        (fun (iv : Rtmon.Violation.interval) ->
          Buffer.add_string buf
            (Fmt.str "%d,%s,%s,%s,%g,%g,%s\n" o.Runner.scenario.Defs.number
               (Vehicle.Monitors.location_to_string
                  r.Vehicle.Monitors.entry.Vehicle.Monitors.location)
               r.Vehicle.Monitors.entry.Vehicle.Monitors.id
               (escape r.Vehicle.Monitors.entry.Vehicle.Monitors.goal.Kaos.Goal.name)
               iv.Rtmon.Violation.start_time
               (iv.Rtmon.Violation.duration *. 1000.)
               (Results.classification_of o r iv)))
        r.Vehicle.Monitors.violations)
    o.Runner.results;
  Buffer.contents buf

(** [campaign_csv campaign] — one row per (fault, scenario) cell of the
    detection-coverage matrix, with the per-cell classification counts. *)
let campaign_csv (c : Campaign.t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "fault,scenario,detection,lead_s,hits,false_negatives,false_positives,\
     inhibited,collided,baseline_collided\n";
  List.iter
    (fun (cell : Campaign.cell) ->
      let detection, lead =
        match cell.Campaign.detection with
        | Campaign.Detected lead -> ("detected", Fmt.str "%g" lead)
        | Campaign.Missed -> ("missed", "")
        | Campaign.Spurious -> ("spurious", "")
        | Campaign.No_effect -> ("no_effect", "")
      in
      Buffer.add_string buf
        (Fmt.str "%s,%d,%s,%s,%d,%d,%d,%d,%d,%d\n"
           (escape (Inject.Fault.to_string cell.Campaign.fault))
           cell.Campaign.scenario detection lead cell.Campaign.hits
           cell.Campaign.false_negatives cell.Campaign.false_positives
           cell.Campaign.inhibited
           (if cell.Campaign.collided then 1 else 0)
           (if cell.Campaign.baseline_collided then 1 else 0)))
    c.Campaign.cells;
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
