module G = Hypergraph.Graph

(* All label text that can contain user-controlled characters
   (relation names from SQL) goes through the shared DOT escaper —
   see Hypergraph.Dot.escape_label. *)
let esc = Hypergraph.Dot.escape_label

let to_dot ?(name = "plan") g plan =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph %s {\n  node [fontname=\"monospace\"];\n" name;
  let counter = ref 0 in
  let rec go (p : Plan.t) =
    let id = !counter in
    incr counter;
    (match p.tree with
    | Plan.Scan i ->
        pr "  n%d [shape=ellipse, label=\"%s\\ncard=%.0f\"];\n" id
          (esc (G.relation g i).G.name)
          p.card
    | Plan.Join j ->
        pr "  n%d [shape=box, label=\"%s\\ncard=%.3g cost=%.3g\\nedges=[%s]\"];\n"
          id
          (esc (Relalg.Operator.symbol j.op))
          p.card p.cost
          (String.concat "," (List.map string_of_int j.edge_ids));
        let l = go j.left in
        let r = go j.right in
        pr "  n%d -> n%d;\n" id l;
        pr "  n%d -> n%d;\n" id r);
    id
  in
  ignore (go plan);
  pr "}\n";
  Buffer.contents buf

let write_file path g plan =
  Hypergraph.Dot.write_atomically path (fun oc ->
      output_string oc (to_dot g plan))
