(** Machine-readable torlint output: a SARIF 2.1.0 document whose
    results carry stable fingerprints. *)

val fingerprint : occurrence:int -> Diagnostic.t -> string
(** Stable identity of a finding: a hex digest of (path, rule id,
    message, occurrence index). Line numbers are deliberately excluded
    so fingerprints survive unrelated edits; messages must not embed
    positions. *)

val with_fingerprints : Diagnostic.t list -> (Diagnostic.t * string) list
(** Pair each diagnostic with its fingerprint, numbering identical
    (path, rule, message) findings by occurrence. *)

val sarif : rules:(string * string) list -> (Diagnostic.t * string) list -> string
(** A minimal SARIF 2.1.0 log. [rules] is [(id, doc)] for the tool
    driver's rule table. *)
