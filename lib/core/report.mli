(** Uniform reporting for the reproduction harness: every experiment
    produces rows of (statistic, paper value, measured value, simulator
    truth, shape verdict). *)

type row = {
  label : string;
  paper : string;
  measured : string;
  truth : string;
  ok : bool option;  (** shape verdict, when checkable *)
}

type t = {
  id : string;         (** "Table 4", "Figure 1", ... *)
  title : string;
  scale_note : string; (** simulation-vs-live scale *)
  rows : row list;
}

val row : ?truth:string -> ?ok:bool -> label:string -> paper:string -> measured:string -> unit -> row

val print : t -> unit
(** Aligned table on stdout. *)

val to_csv : t -> string
(** Machine-readable export (header included). *)

val all_ok : t -> bool
(** True when no row's verdict is [Some false]. *)

(** Formatting helpers shared by the experiments. *)

val fmt_count : float -> string
val fmt_ci : Stats.Ci.t -> string
val fmt_count_ci : float -> Stats.Ci.t -> string

val within : tolerance:float -> expected:float -> float -> bool
(** Relative-error check (absolute when [expected] is 0). *)
