module Ns = Nodeset.Node_set
module G = Hypergraph.Graph

(* Search-space provenance: a sampled, bounded record of the decision
   trail inside the DP table(s) of one optimizer run.

   The recorder observes Dp_table.offer outcomes through the table
   hook (see Plans.Dp_table.set_hook): every candidate that reached a
   memo slot either installed itself, displaced a champion, or was
   rejected as not cheaper.  Per observed subset it keeps the
   champion history — which csg-cmp-pair decomposition won, at what
   cost, what it beat, and at which arrival rank — plus aggregate
   candidate/pruning counts; globally it keeps one stats block.

   Bounded by construction: at most [max_subsets] subsets are
   tracked, at most [max_champions] history entries are kept per
   subset (older entries are dropped, a counter remembers how many),
   and [sample] > 1 hash-samples the subset space.  Overflow and
   sampling never lose the aggregate counts — only history detail.

   Attachment is ambient: [with_recording] installs a table-creation
   observer, so every DP table the run builds (the main memo, the
   per-block tables of the partitioned tier, IDP round tables) is
   hooked without any algorithm threading a recorder parameter.  The
   algorithm layers label their tables with
   Plans.Dp_table.with_context; the label is captured into each
   champion entry.  The hook is domain-local, so recording covers the
   tables the calling domain builds inside the wrapped call; a batch
   running on other domains records nothing. *)

module NsTbl = Hashtbl.Make (struct
  type t = Ns.t

  let equal = Ns.equal
  let hash = Ns.hash
end)

type champion = {
  left : Ns.t;  (* winning decomposition *)
  right : Ns.t;
  cost : float;
  card : float;
  displaced : float option;  (* cost of the entry it beat; None = first *)
  rank : int;  (* 1-based arrival rank among the subset's candidates *)
  context : string;  (* ambient table context (tier/block/round) *)
}

type subset = {
  set : Ns.t;
  mutable champions : champion list;  (* newest first, bounded *)
  mutable candidates : int;
  mutable rejected : int;
  mutable dropped : int;  (* history entries discarded by the bound *)
}

type stats = {
  mutable subsets : int;
  mutable candidates : int;
  mutable installed : int;
  mutable displaced : int;
  mutable rejected : int;
  mutable sampled_out : int;
  mutable overflowed : int;
  mutable tables : int;
}

type t = {
  sample : int;
  max_subsets : int;
  max_champions : int;
  tbl : subset NsTbl.t;
  stats : stats;
}

let create ?(sample = 1) ?(max_subsets = 65536) ?(max_champions = 8) () =
  if sample < 1 then invalid_arg "Provenance.create: sample < 1";
  if max_subsets < 1 then invalid_arg "Provenance.create: max_subsets < 1";
  if max_champions < 1 then invalid_arg "Provenance.create: max_champions < 1";
  {
    sample;
    max_subsets;
    max_champions;
    tbl = NsTbl.create 1024;
    stats =
      {
        subsets = 0;
        candidates = 0;
        installed = 0;
        displaced = 0;
        rejected = 0;
        sampled_out = 0;
        overflowed = 0;
        tables = 0;
      };
  }

let stats t = t.stats

let sampled t set = t.sample <= 1 || Ns.hash set mod t.sample = 0

let observe t set ~left ~cost ~card (ev : Plans.Dp_table.event) =
  let s = t.stats in
  s.candidates <- s.candidates + 1;
  (match ev with
  | Plans.Dp_table.Installed -> s.installed <- s.installed + 1
  | Plans.Dp_table.Displaced _ -> s.displaced <- s.displaced + 1
  | Plans.Dp_table.Rejected -> s.rejected <- s.rejected + 1);
  if not (sampled t set) then s.sampled_out <- s.sampled_out + 1
  else begin
    let sub =
      match NsTbl.find_opt t.tbl set with
      | Some sub -> Some sub
      | None ->
          if NsTbl.length t.tbl >= t.max_subsets then begin
            s.overflowed <- s.overflowed + 1;
            None
          end
          else begin
            let sub =
              { set; champions = []; candidates = 0; rejected = 0; dropped = 0 }
            in
            NsTbl.add t.tbl set sub;
            s.subsets <- s.subsets + 1;
            Some sub
          end
    in
    match sub with
    | None -> ()
    | Some sub -> (
        sub.candidates <- sub.candidates + 1;
        match ev with
        | Plans.Dp_table.Rejected -> sub.rejected <- sub.rejected + 1
        | Plans.Dp_table.Installed | Plans.Dp_table.Displaced _ ->
            let c =
              {
                left;
                right = Ns.diff set left;
                cost;
                card;
                displaced =
                  (match ev with
                  | Plans.Dp_table.Displaced old -> Some old
                  | _ -> None);
                rank = sub.candidates;
                context = Plans.Dp_table.current_context ();
              }
            in
            let kept = c :: sub.champions in
            if List.length kept > t.max_champions then begin
              (* drop the oldest history entry *)
              sub.champions <-
                List.filteri (fun i _ -> i < t.max_champions) kept;
              sub.dropped <- sub.dropped + 1
            end
            else sub.champions <- kept)
  end

let attach t table =
  t.stats.tables <- t.stats.tables + 1;
  Plans.Dp_table.set_hook table (Some (observe t))

let with_recording t body =
  Plans.Dp_table.with_create_observer (attach t) body

(* ---------- accessors ---------- *)

let find t set = NsTbl.find_opt t.tbl set

let subsets t =
  NsTbl.fold (fun _ sub acc -> sub :: acc) t.tbl []
  |> List.stable_sort (fun a b ->
         match Int.compare (Ns.cardinal a.set) (Ns.cardinal b.set) with
         | 0 -> Ns.compare a.set b.set
         | c -> c)

let champion sub =
  match sub.champions with [] -> None | c :: _ -> Some c

let set_to_string ?names s =
  match names with
  | Some f -> Format.asprintf "%a" (Ns.pp_named f) s
  | None -> Format.asprintf "%a" Ns.pp s

(* ---------- human table ---------- *)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "%a" Obs.Export.pp_kvs
    [
      Obs.Export.kv_int "tables" s.tables;
      Obs.Export.kv_int "subsets" s.subsets;
      Obs.Export.kv_int "candidates" s.candidates;
      Obs.Export.kv_int "installed" s.installed;
      Obs.Export.kv_int "displaced" s.displaced;
      Obs.Export.kv_int "rejected" s.rejected;
      Obs.Export.kv_int "sampled_out" s.sampled_out;
      Obs.Export.kv_int "overflowed" s.overflowed;
    ]

let pp_table ?names ppf t =
  Format.fprintf ppf "%-26s %12s %11s %6s %6s %5s  %s@." "subset" "cost"
    "card" "cands" "prune" "hist" "winning pair";
  Format.fprintf ppf "%s@." (String.make 100 '-');
  List.iter
    (fun sub ->
      match champion sub with
      | None -> ()
      | Some c ->
          let pair =
            Printf.sprintf "%s x %s"
              (set_to_string ?names c.left)
              (set_to_string ?names c.right)
          in
          Format.fprintf ppf "%-26s %12.4g %11.4g %6d %6d %5d  %s%s@."
            (set_to_string ?names sub.set)
            c.cost c.card sub.candidates sub.rejected
            (List.length sub.champions)
            pair
            (if c.context = "" then ""
             else Printf.sprintf "  [%s]" c.context))
    (subsets t);
  Format.fprintf ppf "provenance: %a@." pp_stats t.stats

(* ---------- obs_inspect/v1 JSON ---------- *)

let q = Obs.Json_util.quote

let champion_json ?names c =
  Printf.sprintf
    "{\"left\": %s, \"right\": %s, \"cost\": %.6g, \"card\": %.6g, \
     \"displaced\": %s, \"rank\": %d, \"context\": %s}"
    (q (set_to_string ?names c.left))
    (q (set_to_string ?names c.right))
    c.cost c.card
    (match c.displaced with
    | None -> "null"
    | Some d -> Printf.sprintf "%.6g" d)
    c.rank (q c.context)

let subset_json ?names sub =
  Printf.sprintf
    "    {\"set\": %s, \"size\": %d, \"candidates\": %d, \"rejected\": %d, \
     \"dropped\": %d, \"champions\": [%s]}"
    (q (set_to_string ?names sub.set))
    (Ns.cardinal sub.set) sub.candidates sub.rejected sub.dropped
    (String.concat ", "
       (List.map (champion_json ?names) (List.rev sub.champions)))

let to_json ?names ?(name = "run") t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"obs_inspect/v1\",\n";
  Printf.bprintf b "  \"name\": %s,\n" (q name);
  Printf.bprintf b
    "  \"config\": {\"sample\": %d, \"max_subsets\": %d, \"max_champions\": \
     %d},\n"
    t.sample t.max_subsets t.max_champions;
  let s = t.stats in
  Printf.bprintf b
    "  \"stats\": {\"tables\": %d, \"subsets\": %d, \"candidates\": %d, \
     \"installed\": %d, \"displaced\": %d, \"rejected\": %d, \"sampled_out\": \
     %d, \"overflowed\": %d},\n"
    s.tables s.subsets s.candidates s.installed s.displaced s.rejected
    s.sampled_out s.overflowed;
  Buffer.add_string b "  \"subsets\": [\n";
  Buffer.add_string b
    (String.concat ",\n" (List.map (subset_json ?names) (subsets t)));
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ---------- DOT search-space lattice ---------- *)

(* The subset lattice the run explored: one node per recorded subset
   (its final champion's cost in the label), and for each subset the
   two lattice edges from the halves of its winning decomposition.
   Halves the recorder never saw (leaves arrive via [force], sampled-
   out subsets) still get a node so every winning pair is drawn.
   Conventions follow Hypergraph.Dot: ellipses for leaves, boxes for
   composites, labels through the shared escaper. *)
let to_dot ?names ?(name = "search_space") t =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph %s {\n  node [fontname=\"monospace\"];\n" name;
  let ids = Hashtbl.create 64 in
  let next = ref 0 in
  let esc = Hypergraph.Dot.escape_label in
  let node_id set =
    let key = set_to_string ?names set in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        Hashtbl.add ids key id;
        id
  in
  let declare set label shape =
    pr "  s%d [shape=%s, label=\"%s\"];\n" (node_id set) shape (esc label)
  in
  let subs = subsets t in
  (* declare recorded subsets first, in deterministic order *)
  List.iter
    (fun sub ->
      match champion sub with
      | None -> ()
      | Some c ->
          let shape = if Ns.is_singleton sub.set then "ellipse" else "box" in
          declare sub.set
            (Printf.sprintf "%s\ncost=%.4g cands=%d"
               (set_to_string ?names sub.set)
               c.cost sub.candidates)
            shape)
    subs;
  (* lattice edges from each winning pair; declare missing halves *)
  List.iter
    (fun sub ->
      match champion sub with
      | None -> ()
      | Some c ->
          List.iter
            (fun half ->
              let key = set_to_string ?names half in
              if not (Hashtbl.mem ids key) then
                declare half key
                  (if Ns.is_singleton half then "ellipse" else "box"))
            [ c.left; c.right ];
          pr "  s%d -> s%d;\n" (node_id c.left) (node_id sub.set);
          pr "  s%d -> s%d;\n" (node_id c.right) (node_id sub.set))
    subs;
  pr "}\n";
  Buffer.contents buf
