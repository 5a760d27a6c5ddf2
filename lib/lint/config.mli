(** torlint configuration: which rules run where, which findings are
    allow-listed, and the seed lists for the privacy-flow and
    polymorphic-compare rules.

    The repo-root [torlint.config] file holds one directive per line
    ([#] starts a comment):

    {v
    disable RULE              # turn a rule id or family off entirely
    allow RULE PATH           # allow-list RULE (id or family) in paths
                              # containing PATH as a substring
    scope FAMILY PATH         # add PATH to FAMILY's scoped directories
                              # (determinism, polycompare or hygiene;
                              # any other family is an error)
    sensitive IDENT           # privacy-flow: a raw-counter accessor,
                              # matched as a dotted suffix (Dc.report
                              # matches Privcount.Dc.report)
    sink PATH                 # privacy-flow: an output-sink path
    launder PATH              # privacy-flow: a DP laundering point
    crypto-module NAME        # polycompare: an abstract-type module
    escape SUFFIX             # polycompare: function-name suffix that
                              # exempts an operand (e.g. _to_int)
    worker-safe PATH          # domain-safety: paths whose code is the
                              # synchronization layer itself (the
                              # pool) and is exempt
    det-exempt PATH           # determinism: paths scoped code may
                              # transitively reach despite banned
                              # primitives inside them (lib/obs)
    v}

    Every directive extends the built-in defaults; nothing is replaced,
    so the config file only ever widens or narrows rule application
    explicitly. *)

type t = {
  disabled : string list;
  allows : (string * string) list;  (* (rule id or family, path substring) *)
  scopes : (string * string list) list;  (* family -> path substrings *)
  sensitive : string list;
  sinks : string list;
  launder : string list;
  crypto_modules : string list;
  escapes : string list;
  worker_safe : string list;  (* domain-safety: exempt paths *)
  det_exempt : string list;  (* determinism: reachable-but-fine paths *)
}

val default : t
(** The built-in policy: determinism scoped to [lib/privcount],
    [lib/psc], [lib/crypto], [lib/dp]; polycompare to [lib/crypto];
    privacy-flow sinks [lib/obs], [lib/core/report], [bin/] with
    laundering point [lib/dp]; hygiene everywhere under [lib/] and
    [bin/]. *)

val of_string : ?source:string -> string -> (t, string) result
(** Parse directives from a string, extending {!default}. [source]
    names the input in error messages (defaults to ["<string>"]).
    Errors carry the offending line number. *)

val load : string -> (t, string) result
(** [load path] reads and parses a config file. A missing file is an
    error; callers that treat the file as optional should test for
    existence first. *)

val scope_of : t -> string -> string list
(** [scope_of t family] is the list of path substrings the family is
    scoped to (empty means the rule itself decides). *)

val in_paths : string -> string list -> bool
(** [in_paths path frags] holds when [path] (with ['\\'] normalised to
    ['/']) contains any of [frags] as a substring. *)

val rule_matches : string -> rule_id:string -> family:string -> bool
(** Does a directive's rule name ([RULE] above, or ["all"]) cover a
    diagnostic with this [rule_id] and [family]? *)
