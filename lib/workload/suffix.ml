(* A miniature public-suffix list (the paper uses publicsuffix.org) and
   registered-domain / second-level-domain extraction.

   Two implementations live here. The [*_ref] functions are the
   original list-based ones — split the host, walk label lists — kept
   as the executable specification: the property tests drive both on
   arbitrary hostnames and require equality. The exported functions are
   index-scanning rewrites (no [split_on_char], no intermediate lists)
   plus a bounded domain-local memo on the hot [registered_domain]
   path, since real traces repeat hostnames heavily. *)

let two_label_suffixes =
  [ "co.uk"; "co.in"; "co.jp"; "com.br"; "com.cn"; "co.ir"; "com.pl"; "com.ru"; "org.uk";
    "ac.uk"; "gov.uk"; "net.br"; "org.br"; "com.fr"; "co.de" ]

let one_label_suffixes =
  [ "com"; "org"; "net"; "edu"; "gov"; "io"; "info"; "biz";
    "br"; "cn"; "de"; "fr"; "in"; "ir"; "it"; "jp"; "pl"; "ru"; "uk"; "us"; "ca"; "au";
    "nl"; "se"; "es"; "ch"; "cz"; "at"; "be"; "kr"; "mx"; "ar"; "tr"; "ua"; "gr"; "onion" ]

(* --- reference implementation (executable specification) --- *)

let labels host = String.split_on_char '.' (String.lowercase_ascii host)

(* The registered domain (a.k.a. SLD in the paper's terminology): one
   label more than the longest known public suffix. None if the host
   has no known suffix or is itself a bare suffix. *)
let registered_domain_ref host =
  let ls = labels host in
  let suffix_labels =
    match List.rev ls with
    | [] | [ _ ] -> 0
    | last :: second :: _ ->
      if List.mem (second ^ "." ^ last) two_label_suffixes then 2
      else if List.mem last one_label_suffixes then 1
      else 0
  in
  let n = List.length ls in
  if suffix_labels = 0 || n <= suffix_labels then None
  else Some (String.concat "." (List.filteri (fun i _ -> i >= n - suffix_labels - 1) ls))

let top_level_domain_ref host =
  match List.rev (labels host) with
  | [] -> None
  | last :: _ -> if last = "" then None else Some last

(* --- index-scanning fast path --- *)

(* Suffix membership moves from List.mem to Hashtbl sets built once at
   module load; they are read-only afterwards, so sharing them across
   worker domains is safe. *)
let two_label_set =
  let t = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace t s ()) two_label_suffixes;
  t

let one_label_set =
  let t = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace t s ()) one_label_suffixes;
  t

let has_upper host =
  let n = String.length host in
  let rec go i =
    i < n && (match String.unsafe_get host i with 'A' .. 'Z' -> true | _ -> go (i + 1))
  in
  go 0

(* Lowercase only when needed: measured traces are already lowercase,
   so the common case allocates nothing here. *)
let canon host = if has_upper host then String.lowercase_ascii host else host

(* Dot position strictly before index [i], or -1. With [h]'s last dot
   at d1 and the one before at d2, the final label is h[d1+1..), the
   two-label suffix candidate is h[d2+1..) — the same strings the
   reference builds by splitting and re-joining, without the lists. *)
let dot_before h i = if i <= 0 then -1 else (match String.rindex_from_opt h (i - 1) '.' with Some d -> d | None -> -1)

(* The number of suffix labels (1 or 2) of a canonical (lowercased)
   host; 0 = no known suffix. [d1] is the host's last dot, which the
   caller has already found. *)
let suffix_labels_of_canon h ~d1 =
  let n = String.length h in
  let d2 = dot_before h d1 in
  if Hashtbl.mem two_label_set (String.sub h (d2 + 1) (n - d2 - 1)) then 2
  else if Hashtbl.mem one_label_set (String.sub h (d1 + 1) (n - d1 - 1)) then 1
  else 0

let registered_domain_uncached host =
  let h = canon host in
  match String.rindex_opt h '.' with
  | None -> None
  | Some d1 -> (
    let n = String.length h in
    match suffix_labels_of_canon h ~d1 with
    | 0 -> None
    | 1 ->
      (* keep two labels: everything after the dot before the last one *)
      let d2 = dot_before h d1 in
      Some (String.sub h (d2 + 1) (n - d2 - 1))
    | _ ->
      (* two suffix labels: keep three, i.e. everything after the third
         dot from the end — and a bare two-label suffix has no
         registered domain *)
      let d2 = dot_before h d1 in
      if d2 < 0 then None
      else
        let d3 = dot_before h d2 in
        Some (String.sub h (d3 + 1) (n - d3 - 1)))

let top_level_domain host =
  let n = String.length host in
  if n = 0 then None
  else
    let d1 = match String.rindex_opt host '.' with Some d -> d | None -> -1 in
    if d1 = n - 1 then None (* trailing dot: empty final label *)
    else Some (canon (String.sub host (d1 + 1) (n - d1 - 1)))

(* --- bounded memo for the hot path --- *)

(* Hostnames in a trace repeat heavily, so [registered_domain] memoizes
   host -> result. The table is domain-local (Domain.DLS): the sharded
   network-day driver classifies from worker domains, and a shared
   table would race. A pure function cached per domain returns the same
   values everywhere, so determinism is unaffected. The table resets
   when it reaches [memo_cap] entries — a simple bound that keeps
   adversarially diverse traces from growing it without limit. *)
let memo_cap = 8_192

let memo_key =
  Domain.DLS.new_key (fun () : (string, string option) Hashtbl.t -> Hashtbl.create 1_024)

let registered_domain host =
  let memo = Domain.DLS.get memo_key in
  match Hashtbl.find_opt memo host with
  | Some r -> r
  | None ->
    let r = registered_domain_uncached host in
    if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
    Hashtbl.add memo host r;
    r
