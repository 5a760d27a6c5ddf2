let list_size = 1_000_000

let onionoo = "onionoo.torproject.org"
let torproject = "torproject.org"
let torproject_rank = 10_244
let duckduckgo_rank = 342

let specials =
  [
    (1, "google.com"); (2, "youtube.com"); (3, "facebook.com"); (4, "baidu.com");
    (5, "wikipedia.org"); (6, "yahoo.com"); (7, "google.co.in"); (8, "reddit.com");
    (9, "qq.com"); (10, "amazon.com"); (duckduckgo_rank, "duckduckgo.com");
    (torproject_rank, torproject);
  ]

let top10_basenames =
  [ "google"; "youtube"; "facebook"; "baidu"; "wikipedia"; "yahoo"; "reddit"; "qq"; "amazon" ]

(* Sibling family sizes including the anchor sites themselves; google's
   212 matches the paper, reddit and qq have 3 members each. *)
let family_sizes =
  [
    ("google", 212); ("youtube", 18); ("facebook", 22); ("baidu", 6); ("wikipedia", 28);
    ("yahoo", 24); ("reddit", 3); ("qq", 3); ("amazon", 42); ("duckduckgo", 1);
    ("torproject", 1);
  ]

let cc_variants =
  [ "de"; "fr"; "it"; "jp"; "pl"; "ru"; "co.uk"; "com.br"; "com.cn"; "co.in"; "co.ir"; "es";
    "nl"; "se"; "ca"; "com.ru"; "us"; "at"; "ch"; "be"; "cz"; "gr"; "tr"; "ua"; "mx"; "ar" ]

(* The k-th sibling name of a family; k = 0 is the anchor site itself
   (handled by [specials]), later members rotate through country
   variants and then subdomain-style entries, all containing the
   basename as the paper's construction requires. *)
let sibling_name base k =
  let ncc = List.length cc_variants in
  if k - 1 < ncc then base ^ "." ^ List.nth cc_variants (k - 1)
  else Printf.sprintf "svc%d.%s.com" (k - 1 - ncc) base

(* Anchors of each family among the specials. *)
let family_anchor = function
  | "google" -> [ 1; 7 ]
  | "youtube" -> [ 2 ]
  | "facebook" -> [ 3 ]
  | "baidu" -> [ 4 ]
  | "wikipedia" -> [ 5 ]
  | "yahoo" -> [ 6 ]
  | "reddit" -> [ 8 ]
  | "qq" -> [ 9 ]
  | "amazon" -> [ 10 ]
  | "duckduckgo" -> [ duckduckgo_rank ]
  | "torproject" -> [ torproject_rank ]
  | _ -> []

(* Deterministically place non-anchor siblings at pseudorandom ranks in
   (10, list_size], avoiding collisions. Built eagerly at module load:
   [name_of_rank] is reachable from pool workers (netday sharding), and
   forcing a lazy from two domains races the initializer. *)
let overrides : (int, string) Hashtbl.t =
  (let tbl = Hashtbl.create 1024 in
     List.iter (fun (rank, name) -> Hashtbl.replace tbl rank name) specials;
     let sm = Prng.Splitmix64.create 0x5EEDL in
     let fresh_rank () =
       let rec draw () =
         let v = Int64.to_int (Int64.logand (Prng.Splitmix64.next sm) 0xFFFFFFFFL) in
         let rank = 11 + (v mod (list_size - 10)) in
         if Hashtbl.mem tbl rank then draw () else rank
       in
       draw ()
     in
     List.iter
       (fun (base, size) ->
         let anchors = List.length (family_anchor base) in
         for k = anchors to size - 1 do
           Hashtbl.replace tbl (fresh_rank ()) (sibling_name base k)
         done)
       family_sizes;
   tbl)

let override_ranks : (string, int) Hashtbl.t =
  (let tbl = Hashtbl.create 1024 in
   (* torlint: allow determinism/hashtbl-order — reverse-map build over
      distinct keys; insertion order cannot change the final table *)
   Hashtbl.iter (fun rank name -> Hashtbl.replace tbl name rank) overrides;
   tbl)

(* TLD mix of the synthetic list: about 70% of entries use one of the 14
   TLDs the paper measures, the rest spread over a long tail of other
   suffixes (driving Fig. 3's "other" bar). *)
let alexa_tld_weights =
  [
    ("com", 0.50); ("org", 0.045); ("net", 0.045); ("de", 0.026); ("ru", 0.024); ("uk", 0.020);
    ("jp", 0.016); ("fr", 0.015); ("it", 0.012); ("pl", 0.011); ("br", 0.011); ("in", 0.010);
    ("cn", 0.010); ("ir", 0.006);
    ("io", 0.020); ("info", 0.020); ("us", 0.015); ("ca", 0.025); ("nl", 0.025); ("se", 0.020);
    ("es", 0.025); ("ch", 0.020); ("cz", 0.020); ("at", 0.015); ("be", 0.015); ("kr", 0.020);
    ("mx", 0.015); ("ar", 0.015); ("tr", 0.020); ("ua", 0.020); ("gr", 0.015); ("edu", 0.014);
    ("biz", 0.015); ("au", 0.025);
  ]

let pick_weighted weights x =
  (* x uniform in [0,1) *)
  let rec go acc = function
    | [] -> fst (List.hd (List.rev weights))
    | (tld, w) :: rest -> if x < acc +. w then tld else go (acc +. w) rest
  in
  go 0.0 weights

let hash_unit salt rank =
  (* stable hash of a rank into [0,1) *)
  let v = Prng.Splitmix64.next (Prng.Splitmix64.create (Int64.of_int ((salt * 1_000_003) + rank))) in
  let bits = Int64.to_int (Int64.shift_right_logical v 11) in
  float_of_int bits *. 0x1.0p-53

let tld_of_rank rank = pick_weighted alexa_tld_weights (hash_unit 7 rank)

let generic_name rank = Printf.sprintf "s%d.%s" rank (tld_of_rank rank)

let name_of_rank rank =
  if rank < 1 || rank > list_size then invalid_arg "Domains.name_of_rank: rank out of range";
  match Hashtbl.find_opt overrides rank with
  | Some name -> name
  | None -> generic_name rank

let rank_of_name name =
  match Hashtbl.find_opt override_ranks name with
  | Some rank -> Some rank
  | None ->
    (* parse "s<rank>.<tld>" and verify *)
    if String.length name > 1 && name.[0] = 's' then
      match String.index_opt name '.' with
      | None -> None
      | Some dot -> (
        match int_of_string_opt (String.sub name 1 (dot - 1)) with
        | Some rank when rank >= 1 && rank <= list_size && generic_name rank = name -> Some rank
        | Some _ | None -> None)
    else None

let in_alexa name = rank_of_name name <> None

(* Long-tail, non-Alexa sites: a larger universe of rarely-visited
   domains; TLD mix skews even more towards .com. *)
let tail_tld_weights =
  [
    ("com", 0.62); ("net", 0.08); ("org", 0.05); ("ru", 0.04); ("de", 0.02); ("fr", 0.012);
    ("jp", 0.012); ("uk", 0.012); ("br", 0.010); ("cn", 0.015); ("in", 0.008); ("it", 0.008);
    ("pl", 0.008); ("ir", 0.005); ("io", 0.01); ("info", 0.03); ("us", 0.02); ("biz", 0.02);
    ("se", 0.01); ("nl", 0.01); ("ua", 0.015); ("tr", 0.01);
  ]

let tail_name k =
  if k < 0 then invalid_arg "Domains.tail_name: negative index";
  Printf.sprintf "t%d.%s" k (pick_weighted tail_tld_weights (hash_unit 13 k))

(* --- sibling families --- *)

let all_family_members base =
  match List.assoc_opt base family_sizes with
  | None -> []
  | Some size ->
    let anchors = List.map (fun r -> name_of_rank r) (family_anchor base) in
    let rest = List.init (max 0 (size - List.length anchors)) (fun i -> sibling_name base (i + List.length anchors)) in
    anchors @ rest

let sibling_family = all_family_members

let family_of_name name =
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m > 0 && go 0
  in
  List.find_opt (fun (base, _) -> contains_sub name base) family_sizes |> Option.map fst

let measured_tlds =
  [ "com"; "org"; "net"; "br"; "cn"; "de"; "fr"; "in"; "ir"; "it"; "jp"; "pl"; "ru"; "uk" ]
