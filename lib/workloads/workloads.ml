(** The paper's data-science workloads (§V-A): Crime Index and Birth
    Analysis notebooks, the Kaggle-style N3/N9 pipelines, the synthetic
    hybrid matrix workloads, and the covariance-sweep generators of Fig. 9.

    Each workload is a synthetic data generator (loading tables into a
    {!Sqldb.Db.t}) plus a Python source for the [@pytond] function [query]. *)

open Sqldb
module Rng = Tpch.Dbgen.Rng

let pk cols = { Catalog.no_constraints with primary_key = cols }

(* ------------------------------------------------------------------ *)
(* Crime Index (Weld notebook [11]): Pandas filter → NumPy einsum →   *)
(* Pandas filter/aggregate.                                           *)
(* ------------------------------------------------------------------ *)

(* city stats plus a 3x1 weight matrix in the dense tensor layout *)
let load_crime_index ?(scale = 100) (db : Db.t) : unit =
  let rng = Rng.create 7101 in
  let n = 1000 * scale in
  let population =
    Column.fvec_init n (fun _ -> float_of_int (Rng.int rng 10_000 2_000_000))
  in
  let adults = Column.fvec_init n (fun i -> population.{i} *. 0.7) in
  let robberies = Column.fvec_init n (fun _ -> float_of_int (Rng.int rng 0 5_000)) in
  Db.load_table db "city_data" ~cons:(pk [ "city_id" ])
    (Relation.create [| "city_id"; "total_population"; "adult_population"; "robberies" |]
       [| Column.of_ivec (Column.ivec_init n (fun i -> i + 1));
          Column.of_fvec population;
          Column.of_fvec adults;
          Column.of_fvec robberies |]);
  Db.load_table db "weights" ~cons:(pk [ "id" ])
    (Relation.create [| "id"; "c0" |]
       [| Column.of_ints [| 0; 1; 2 |];
          Column.of_floats [| 0.11e-5; 0.09e-5; -6.0e-4 |] |])

let crime_index_src = {|
import pandas as pd
import numpy as np

@pytond(layouts={'weights': 'dense'})
def query(city_data, weights):
    d = city_data[city_data.total_population > 500000]
    p = d[['total_population', 'adult_population', 'robberies']]
    a = p.to_numpy()
    ci = np.einsum('ij,jk->ik', a, weights)
    df = pd.DataFrame({'ci': ci})
    big = df[df.ci > 0.5]
    return big.ci.sum()
|}

(* ------------------------------------------------------------------ *)
(* Birth Analysis [11]: string fancy-indexing + pivot_table.          *)
(* ------------------------------------------------------------------ *)

let birth_names =
  [| "Leslie"; "Lesley"; "Leslee"; "Mary"; "John"; "Anna"; "Noah"; "Emma";
     "Liam"; "Olivia"; "James"; "Sophia"; "Oliver"; "Ava"; "Peter"; "Rose" |]

let load_birth_analysis ?(scale = 100) (db : Db.t) : unit =
  let rng = Rng.create 9204 in
  let n = 2_000 * scale in
  let years = Column.ivec_init n (fun _ -> Rng.int rng 1880 2010) in
  let names = Array.init n (fun _ -> Rng.pick rng birth_names) in
  let sexes = Array.init n (fun _ -> if Rng.int rng 0 1 = 0 then "F" else "M") in
  let births = Column.ivec_init n (fun _ -> Rng.int rng 5 1_000) in
  Db.load_table db "births"
    (Relation.create [| "year"; "name"; "sex"; "births" |]
       [| Column.of_ivec years;
          Column.of_strings names;
          Column.of_strings sexes;
          Column.of_ivec births |])

let birth_analysis_src = {|
import pandas as pd

@pytond(pivot_values={'sex': ['F', 'M']})
def query(births):
    lesl = births[births.name.str.startswith('Lesl')]
    t = lesl.pivot_table(index='year', columns='sex', values='births', aggfunc='sum')
    t['total'] = t.F + t.M
    t['f_share'] = t.F / t.total
    res = t[['year', 'f_share']]
    return res.sort_values(by='year')
|}

(* ------------------------------------------------------------------ *)
(* N3: airline on-time pipeline (per PyFroid [8]) over a wide table.  *)
(* ------------------------------------------------------------------ *)

let carriers = [| "AA"; "DL"; "UA"; "WN"; "B6"; "AS"; "NK"; "F9"; "HA"; "G4" |]

let load_n3 ?(scale = 100) (db : Db.t) : unit =
  let rng = Rng.create 3303 in
  let n = 5_000 * scale in
  Db.load_table db "flights"
    (Relation.create
       [| "flight_id"; "carrier"; "month"; "day"; "dep_delay"; "arr_delay";
          "distance"; "cancelled" |]
       [| Column.of_ivec (Column.ivec_init n (fun i -> i + 1));
          Column.of_strings (Array.init n (fun _ -> Rng.pick rng carriers));
          Column.of_ivec (Column.ivec_init n (fun _ -> Rng.int rng 1 12));
          Column.of_ivec (Column.ivec_init n (fun _ -> Rng.int rng 1 28));
          Column.of_fvec
            (Column.fvec_init n (fun _ -> float_of_int (Rng.int rng (-10) 180)));
          Column.of_fvec
            (Column.fvec_init n (fun _ -> float_of_int (Rng.int rng (-20) 200)));
          Column.of_fvec
            (Column.fvec_init n (fun _ -> float_of_int (Rng.int rng 50 3000)));
          Column.of_ivec (Column.ivec_init n (fun _ -> if Rng.int rng 0 49 = 0 then 1 else 0)) |])

let n3_src = {|
import pandas as pd
import numpy as np

@pytond()
def query(flights):
    f = flights[flights.cancelled == 0]
    f = f[f.distance > 100]
    g = f.groupby(['carrier']).agg(avg_delay=('arr_delay', 'mean'), cnt=('arr_delay', 'count'))
    big = g[g.cnt > 50]
    j = f.merge(big, left_on='carrier', right_on='carrier')
    j['is_late'] = np.where(j.arr_delay > 15.0, 1, 0)
    g2 = j.groupby(['carrier', 'month']).agg(
        late=('is_late', 'sum'),
        flights=('is_late', 'count'),
        avg_arr=('arr_delay', 'mean'))
    g2['late_share'] = g2.late / g2.flights
    res = g2[['carrier', 'month', 'late_share', 'avg_arr']]
    return res.sort_values(by=['carrier', 'month'])
|}

(* ------------------------------------------------------------------ *)
(* N9: retail analytics (filter + groupby + top-k).                   *)
(* ------------------------------------------------------------------ *)

let load_n9 ?(scale = 100) (db : Db.t) : unit =
  let rng = Rng.create 9909 in
  let n = 3_000 * scale in
  let n_products = 500 in
  Db.load_table db "sales"
    (Relation.create
       [| "sale_id"; "product_id"; "store"; "quantity"; "price"; "promo" |]
       [| Column.of_ivec (Column.ivec_init n (fun i -> i + 1));
          Column.of_ivec (Column.ivec_init n (fun _ -> Rng.int rng 1 n_products));
          Column.of_ivec (Column.ivec_init n (fun _ -> Rng.int rng 1 50));
          Column.of_ivec (Column.ivec_init n (fun _ -> Rng.int rng 1 20));
          Column.of_fvec (Column.fvec_init n (fun _ -> Rng.float rng 0.5 500.));
          Column.of_ivec (Column.ivec_init n (fun _ -> Rng.int rng 0 1)) |]);
  Db.load_table db "products" ~cons:(pk [ "product_id" ])
    (Relation.create [| "product_id"; "category" |]
       [| Column.of_ivec (Column.ivec_init n_products (fun i -> i + 1));
          Column.of_strings
            (Array.init n_products (fun _ ->
                 Rng.pick rng [| "food"; "toys"; "garden"; "office"; "sports" |])) |])

let n9_src = {|
import pandas as pd

@pytond()
def query(sales, products):
    s = sales[sales.quantity > 2]
    s['revenue'] = s.price * s.quantity
    j = s.merge(products, left_on='product_id', right_on='product_id')
    g = j.groupby(['category', 'promo']).agg(
        revenue=('revenue', 'sum'),
        orders=('sale_id', 'count'),
        avg_qty=('quantity', 'mean'))
    res = g.sort_values(by='revenue', ascending=False)
    return res.head(10)
|}

(* ------------------------------------------------------------------ *)
(* Hybrid matrix workloads (§V-A): join → to_numpy → einsum.          *)
(* ------------------------------------------------------------------ *)

let load_hybrid ?(rows = 100_000) (db : Db.t) : unit =
  let rng = Rng.create 4711 in
  let mk n prefix k =
    Relation.create
      (Array.of_list
         (("id" :: List.init k (fun j -> Printf.sprintf "%s%d" prefix j))))
      (Array.of_list
         (Column.of_ivec (Column.ivec_init n (fun i -> i + 1))
         :: List.init k (fun _ ->
                Column.of_fvec
                  (Column.fvec_init n (fun _ -> Rng.float rng (-1.) 1.)))))
  in
  Db.load_table db "t1" ~cons:(pk [ "id" ]) (mk rows "x" 2);
  Db.load_table db "t2" ~cons:(pk [ "id" ]) (mk rows "y" 2);
  (* weight matrix for MV: 4 rows (join width), 1 column *)
  Db.load_table db "w" ~cons:(pk [ "id" ])
    (Relation.create [| "id"; "c0" |]
       [| Column.of_ints [| 0; 1; 2; 3 |];
          Column.of_floats [| 0.25; -0.5; 1.0; 0.75 |] |])

let hybrid_mv_src = {|
import pandas as pd
import numpy as np

@pytond(layouts={'w': 'dense'})
def query(t1, t2, w):
    j = t1.merge(t2, on='id')
    m = j.drop('id', axis=1)
    a = m.to_numpy()
    r = np.einsum('ij,jk->ik', a, w)
    return r
|}

let hybrid_mv_filtered_src = {|
import pandas as pd
import numpy as np

@pytond(layouts={'w': 'dense'})
def query(t1, t2, w):
    j = t1.merge(t2, on='id')
    j2 = j[j.x0 > j.y0]
    m = j2.drop('id', axis=1)
    a = m.to_numpy()
    r = np.einsum('ij,jk->ik', a, w)
    return r
|}

let hybrid_covar_src = {|
import pandas as pd
import numpy as np

@pytond()
def query(t1, t2):
    j = t1.merge(t2, on='id')
    m = j.drop('id', axis=1)
    a = m.to_numpy()
    r = np.einsum('ij,ik->jk', a, a)
    return r
|}

let hybrid_covar_filtered_src = {|
import pandas as pd
import numpy as np

@pytond()
def query(t1, t2):
    j = t1.merge(t2, on='id')
    j2 = j[j.x0 > j.y0]
    m = j2.drop('id', axis=1)
    a = m.to_numpy()
    r = np.einsum('ij,ik->jk', a, a)
    return r
|}

(* ------------------------------------------------------------------ *)
(* Covariance sweep (Fig. 9): matrices by rows × cols × sparsity.     *)
(* ------------------------------------------------------------------ *)

(* [sparsity] is the fraction of non-zero entries (1.0 = fully dense,
   matching the paper's "sparsity of 1" fixed dimension). *)
let covar_matrix ~rows ~cols ~sparsity : float array array =
  let rng = Rng.create 6007 in
  Array.init rows (fun _ ->
      Array.init cols (fun _ ->
          if Rng.float rng 0. 1. <= sparsity then Rng.float rng (-1.) 1.
          else 0.))

(* Load the same matrix in the dense (id, c0..cn-1) and sparse COO layouts. *)
let load_covar (db : Db.t) ~rows ~cols ~sparsity : unit =
  let m = covar_matrix ~rows ~cols ~sparsity in
  Db.load_table db "m" ~cons:(pk [ "id" ])
    (Relation.create
       (Array.of_list ("id" :: List.init cols (Printf.sprintf "c%d")))
       (Array.of_list
          (Column.of_ivec (Column.ivec_init rows Fun.id)
          :: List.init cols (fun j ->
                 Column.of_fvec (Column.fvec_init rows (fun i -> m.(i).(j)))))));
  let coo_r = ref [] and coo_c = ref [] and coo_v = ref [] in
  for i = rows - 1 downto 0 do
    for j = cols - 1 downto 0 do
      if m.(i).(j) <> 0. then begin
        coo_r := i :: !coo_r;
        coo_c := j :: !coo_c;
        coo_v := m.(i).(j) :: !coo_v
      end
    done
  done;
  Db.load_table db "m_sparse"
    (Relation.create [| "row_id"; "col_id"; "val" |]
       [| Column.of_ints (Array.of_list !coo_r);
          Column.of_ints (Array.of_list !coo_c);
          Column.of_floats (Array.of_list !coo_v) |])

let covar_dense_src = {|
import numpy as np

@pytond(layouts={'m': 'dense'})
def query(m):
    return np.einsum('ij,ik->jk', m, m)
|}

let covar_sparse_src = {|
import numpy as np

@pytond(layouts={'m_sparse': 'sparse'})
def query(m_sparse):
    return np.einsum('ij,ik->jk', m_sparse, m_sparse)
|}

(* name, loader with default scale, source *)
let all : (string * (Db.t -> unit) * string) list =
  [ ("crime_index", load_crime_index ~scale:10, crime_index_src);
    ("birth_analysis", load_birth_analysis ~scale:10, birth_analysis_src);
    ("n3", load_n3 ~scale:10, n3_src);
    ("n9", load_n9 ~scale:10, n9_src);
    ("hybrid_mv", load_hybrid ~rows:20_000, hybrid_mv_src);
    ("hybrid_mv_filtered", load_hybrid ~rows:20_000, hybrid_mv_filtered_src);
    ("hybrid_covar", load_hybrid ~rows:20_000, hybrid_covar_src);
    ("hybrid_covar_filtered", load_hybrid ~rows:20_000, hybrid_covar_filtered_src) ]
