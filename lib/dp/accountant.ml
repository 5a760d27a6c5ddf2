(* Measurement-schedule privacy accountant.

   The paper's deployment rules (§3.1): PrivCount and PSC measurements
   are never conducted in parallel, and sequential measurements of
   distinct statistics are separated by at least 24 hours, so each
   24-hour adjacency window is covered by at most one (ε,δ) publication.
   This module enforces those rules and tracks cumulative privacy spend
   over a campaign. *)

type system = PrivCount | PSC

type record = {
  start_hour : int;        (* campaign time, hours *)
  duration_hours : int;
  system : system;
  statistic : string;
  params : Mechanism.params;
}

type t = { mutable records : record list; min_gap_hours : int }

exception Schedule_violation of string

let create ?(min_gap_hours = 24) () = { records = []; min_gap_hours }

let overlaps a b =
  a.start_hour < b.start_hour + b.duration_hours
  && b.start_hour < a.start_hour + a.duration_hours

let gap_after a b =
  (* hours between end of [a] and start of [b]; negative if b starts first *)
  b.start_hour - (a.start_hour + a.duration_hours)

let register t ~start_hour ~duration_hours ~system ~statistic ~params =
  let r = { start_hour; duration_hours; system; statistic; params } in
  List.iter
    (fun prev ->
      if overlaps prev r then
        raise
          (Schedule_violation
             (Printf.sprintf "measurement %S overlaps %S" statistic prev.statistic));
      if prev.statistic <> statistic then begin
        let gap = if prev.start_hour <= r.start_hour then gap_after prev r else gap_after r prev in
        if gap < t.min_gap_hours then
          raise
            (Schedule_violation
               (Printf.sprintf "measurements %S and %S closer than %dh" prev.statistic
                  statistic t.min_gap_hours))
      end)
    t.records;
  let system_label = match system with PrivCount -> "privcount" | PSC -> "psc" in
  (* Campaign-level draw in the run ledger; namespaced apart from the
     per-round systems so schedule spend and round spend audit
     independently. *)
  Obs.Ledger.draw ~system:("schedule/" ^ system_label) ~counter:statistic ~mechanism:"scheduled"
    ~epsilon:params.Mechanism.epsilon ~delta:params.Mechanism.delta;
  t.records <- r :: t.records

let total_spend t = Budget.compose (List.map (fun r -> r.params) t.records)

(* Worst-case privacy cost over any 24-hour adjacency window: the sum of
   the publications whose measurement period intersects the window. With
   the schedule rules above this equals the single largest per-statistic
   cost, which is what the paper's per-window guarantee relies on. *)
let window_spend t ~window_start =
  let window = { start_hour = window_start; duration_hours = 24; system = PrivCount;
                 statistic = "window"; params = Mechanism.{ epsilon = 0.0; delta = 0.0 } }
  in
  Budget.compose
    (List.filter_map (fun r -> if overlaps r window then Some r.params else None) t.records)
