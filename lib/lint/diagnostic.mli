(** A single torlint finding: a location, a rule id, a severity, and a
    human-readable message. Diagnostics are what the engine returns and
    what the [torlint] executable prints, one per line, in a
    [file:line:col] format that editors and CI annotators understand. *)

type severity = Error | Warning

type t = {
  path : string;  (** path as given to the engine (repo-relative in CI) *)
  line : int;     (** 1-based *)
  col : int;      (** 0-based, matching the compiler's convention *)
  rule_id : string;  (** e.g. ["determinism/hashtbl-order"] *)
  severity : severity;
  message : string;
}

val family : t -> string
(** The rule family, i.e. the part of [rule_id] before the ['/']. *)

val v :
  path:string -> rule_id:string -> severity:severity -> message:string ->
  Location.t -> t
(** Build a diagnostic from a parsetree location. *)

val compare : t -> t -> int
(** Order by path, then line, then column, then rule id. *)

val to_string : t -> string
(** ["path:line:col: [severity] rule-id: message"]. *)
