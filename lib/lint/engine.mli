(** The torlint engine: parse every source with the compiler's own
    parser, run the per-file rules on each file, build the
    whole-program {!Callgraph} and run the global rules over it, then
    filter the findings through in-source allow comments and the config
    allowlist. Allow comments that waived nothing are reported as
    [suppress/stale-allow] — warnings by default, errors with
    [~strict_allows:true]. *)

val parse :
  path:string -> string -> (Parsetree.structure, Location.t * string) result
(** Parse one source with the compiler's parser; positions carry
    [path]. Exposed so the call-graph tests can build ASTs directly. *)

val lint_sources :
  ?strict_allows:bool -> Config.t -> (string * string) list -> Diagnostic.t list
(** Lint a set of [(path, source)] pairs as one program: per-file rules
    see each file, global rules see the call graph of all of them.
    Paths drive scoping and sink/launder decisions. A file that does
    not parse yields a single [parse/error] diagnostic and is excluded
    from the graph. Results are sorted by position. *)

val lint_paths :
  ?strict_allows:bool -> Config.t -> string list -> Diagnostic.t list
(** Lint files and/or directories (directories are walked) as one
    program. *)
