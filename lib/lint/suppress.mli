(** In-source suppression comments.

    A finding can be waived at its site with

    {[ (* torlint: allow RULE ... — justification *) ]}

    where each [RULE] is a rule id ([determinism/hashtbl-order]), a
    family ([determinism]), or [all]. A bare allow comment with no rule
    names waives every rule. The comment suppresses matching
    diagnostics on its own line and on the two lines that follow it, so
    it can sit directly above the flagged expression.

    The marker is only recognized when the phrase directly follows a
    comment opener outside any string literal; prose or string
    literals that merely mention "torlint: allow" are ignored.

    Each entry tracks whether it actually waived a diagnostic during a
    run; [stale] returns the ones that never matched, which the engine
    reports as [suppress/stale-allow]. *)

type entry = {
  line : int;
  rules : string list;  (** [[]] means "allow everything here" *)
  mutable used : bool;
}

type t = entry list

val scan : string -> t
(** Collect the allow comments of one source file. The scan is
    lexical and does not require the file to parse: it steps over
    string literals (["..."] with escapes, [{id|...|id}]) and character
    literals, in code and in comments, and reads an allow's rule names
    from the rest of the marker's line. *)

val allows : t -> line:int -> rule_id:string -> family:string -> bool
(** Is a diagnostic at [line] waived by some allow comment? Marks every
    matching entry as used. *)

val stale : t -> entry list
(** Entries that waived nothing since [scan]. *)
