module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

type table =
  | Region
  | Nation
  | Supplier
  | Customer
  | Part
  | Partsupp
  | Orders
  | Lineitem

let all_tables =
  [ Region; Nation; Supplier; Customer; Part; Partsupp; Orders; Lineitem ]

let table_name = function
  | Region -> "region"
  | Nation -> "nation"
  | Supplier -> "supplier"
  | Customer -> "customer"
  | Part -> "part"
  | Partsupp -> "partsupp"
  | Orders -> "orders"
  | Lineitem -> "lineitem"

let base_card = function
  | Region -> 5.0
  | Nation -> 25.0
  | Supplier -> 10_000.0
  | Customer -> 150_000.0
  | Part -> 200_000.0
  | Partsupp -> 800_000.0
  | Orders -> 1_500_000.0
  | Lineitem -> 6_000_000.0

let card ?(sf = 1.0) t =
  match t with
  | Region | Nation -> base_card t (* fixed-size tables *)
  | _ -> base_card t *. sf

(* Join structures (FROM/WHERE join graphs of the TPC-H queries).
   Edges are (a, b, key) meaning a.key = b.key, with b the referenced
   (key-unique) side, so selectivity = 1/|b|. *)
let structures : (string * table list * (int * int * string) list) list =
  [
    (* Q2: part, supplier, partsupp, nation, region *)
    ( "q2",
      [ Part; Supplier; Partsupp; Nation; Region ],
      [ (2, 0, "partkey"); (2, 1, "suppkey"); (1, 3, "nationkey"); (3, 4, "regionkey") ] );
    (* Q3: customer, orders, lineitem *)
    ("q3", [ Customer; Orders; Lineitem ], [ (1, 0, "custkey"); (2, 1, "orderkey") ]);
    (* Q5: customer, orders, lineitem, supplier, nation, region *)
    ( "q5",
      [ Customer; Orders; Lineitem; Supplier; Nation; Region ],
      [
        (1, 0, "custkey"); (2, 1, "orderkey"); (2, 3, "suppkey");
        (0, 4, "nationkey"); (3, 4, "nationkey"); (4, 5, "regionkey");
      ] );
    (* Q7: supplier, lineitem, orders, customer, nation n1, nation n2 *)
    ( "q7",
      [ Supplier; Lineitem; Orders; Customer; Nation; Nation ],
      [
        (1, 0, "suppkey"); (1, 2, "orderkey"); (2, 3, "custkey");
        (0, 4, "nationkey"); (3, 5, "nationkey");
      ] );
    (* Q8: part, supplier, lineitem, orders, customer, nation n1,
       nation n2, region *)
    ( "q8",
      [ Part; Supplier; Lineitem; Orders; Customer; Nation; Nation; Region ],
      [
        (2, 0, "partkey"); (2, 1, "suppkey"); (2, 3, "orderkey");
        (3, 4, "custkey"); (4, 5, "nationkey"); (5, 7, "regionkey");
        (1, 6, "nationkey");
      ] );
    (* Q9: part, supplier, lineitem, partsupp, orders, nation *)
    ( "q9",
      [ Part; Supplier; Lineitem; Partsupp; Orders; Nation ],
      [
        (2, 0, "partkey"); (2, 1, "suppkey"); (2, 3, "ps_key");
        (2, 4, "orderkey"); (1, 5, "nationkey");
      ] );
    (* Q10: customer, orders, lineitem, nation *)
    ( "q10",
      [ Customer; Orders; Lineitem; Nation ],
      [ (1, 0, "custkey"); (2, 1, "orderkey"); (0, 3, "nationkey") ] );
  ]

let query_names = List.map (fun (n, _, _) -> n) structures

let find name =
  match List.find_opt (fun (n, _, _) -> n = name) structures with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Tpch.query: unknown query %S (known: %s)" name
           (String.concat ", " query_names))

let tables_of_query name =
  let _, tables, _ = find name in
  tables

(* The smallest scaled table, supplier, keeps at least one row, and
   the largest, lineitem, a finite count. *)
let min_sf = 1e-4

let query ?sf name =
  (match sf with
  | Some sf
    when not (sf >= min_sf && Float.is_finite (card ~sf Lineitem)) ->
      invalid_arg
        (Printf.sprintf
           "Tpch.query: sf must be a scale factor >= %g that keeps every \
            table finite (got %g)" min_sf
           sf)
  | _ -> ());
  let _, tables, edges = find name in
  let tarr = Array.of_list tables in
  let rels =
    Array.mapi
      (fun i t ->
        G.base_rel
          ~card:(card ?sf t)
          (Printf.sprintf "%s_%d" (table_name t) i))
      tarr
  in
  let edges =
    List.mapi
      (fun id (a, b, key) ->
        (* FK selectivity: 1 / |referenced side| *)
        let sel = 1.0 /. card ?sf tarr.(b) in
        He.simple ~pred:(Relalg.Predicate.eq_cols a key b key) ~sel ~id a b)
      edges
  in
  G.make rels (Array.of_list edges)
