(* Synthetic autonomous-system population (the paper maps IPs with
   CAIDA's pfx2as data, 59,597 defined ASes at the time, and checks the
   CAIDA top-1000 AS rank list for hotspots). Client ASes follow a
   heavy-tailed popularity: no single AS dominates, the top 1000 hold a
   bit under half of the clients, and roughly 12k ASes host at least one
   Tor client per day. *)

let top_ranked = 1_000

(* Share of clients inside the CAIDA top-1000 (paper: the rest hold 53%
   of connections, 52% of data, 62% of circuits). *)
let top1000_share = 0.47

(* Active AS universe: ASes that plausibly host Tor clients at all. *)
let active = 14_000

let sample rng =
  if Prng.Rng.bernoulli rng top1000_share then
    (* within the top 1000, popularity is itself heavy-tailed but flat
       enough that no AS is statistically significant at our weight *)
    Prng.Dist.zipf rng ~n:top_ranked ~s:0.6
  else
    (* outside: uniform-ish over the active tail *)
    top_ranked + Prng.Rng.below rng (active - top_ranked) + 1
