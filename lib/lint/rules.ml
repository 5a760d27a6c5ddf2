(* The rule registry. Adding a per-file rule family = adding a module
   exposing a [Rule.t] and listing it in [all]; whole-program passes
   expose a [Global.t] and go in [globals]. Each family lives in
   exactly one list. The engine, executable, suppression comments, and
   config directives all pick them up from these lists. *)

let all : Rule.t list = [ Rule_polycompare.rule; Rule_hygiene.rule ]

let globals : Global.t list =
  [
    Rule_determinism.global;
    Rule_domainsafety.global;
    Rule_privflow.global;
  ]
