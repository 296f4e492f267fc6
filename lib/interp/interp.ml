(** Interpreter for the Python subset with Pandas/NumPy builtins.

    This is the "Python" baseline of the paper's evaluation: the same source
    that PyTond compiles to SQL is executed here eagerly — one materialized
    operation per API call over {!Dataframe.Df} and {!Tensor.Dense}. *)

open Frontend.Ast
module Df = Dataframe.Df
module Dense = Tensor.Dense
module Column = Sqldb.Column
module Value = Sqldb.Value

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type value =
  | VDf of Df.t
  | VSeries of { col : Column.t; sname : string }
  | VMask of bool array
  | VTensor of Dense.t
  | VVal of Value.t
  | VList of value list
  | VDictV of (string * value) list
  | VModule of string
  | VBound of value * string
  | VLambda of string list * expr * env
  | VGrouped of { gdf : Df.t; by : string list }
  | VGroupedSel of { gdf : Df.t; by : string list; sel : string }
  | VAccessor of string * value (* "str" / "dt" over a series *)
  | VNone

and env = (string, value) Hashtbl.t

let type_name = function
  | VDf _ -> "DataFrame"
  | VSeries _ -> "Series"
  | VMask _ -> "Mask"
  | VTensor _ -> "ndarray"
  | VVal _ -> "scalar"
  | VList _ -> "list"
  | VDictV _ -> "dict"
  | VModule m -> "module " ^ m
  | VBound _ -> "method"
  | VLambda _ -> "lambda"
  | VGrouped _ -> "GroupBy"
  | VGroupedSel _ -> "GroupBySel"
  | VAccessor (a, _) -> a ^ "-accessor"
  | VNone -> "None"

let as_series = function
  | VSeries s -> s.col
  | VMask m -> Column.of_bools m
  | v -> err "expected a Series, got %s" (type_name v)

let as_mask ~n = function
  | VMask m -> m
  | VSeries { col; _ } -> Array.init (Column.length col) (fun i -> Column.bool_at col i)
  | VVal (Value.VBool b) -> Array.make n b
  | v -> err "expected a boolean mask, got %s" (type_name v)

let as_df = function
  | VDf d -> d
  | VSeries { col; sname } -> Df.create [ (sname, col) ]
  | v -> err "expected a DataFrame, got %s" (type_name v)

let as_string = function
  | VVal (Value.VString s) -> s
  | v -> err "expected a string, got %s" (type_name v)

let as_int = function
  | VVal (Value.VInt i) -> i
  | VVal (Value.VFloat f) -> int_of_float f
  | v -> err "expected an int, got %s" (type_name v)

let as_scalar = function
  | VVal v -> v
  | v -> err "expected a scalar, got %s" (type_name v)

let as_string_list = function
  | VVal (Value.VString s) -> [ s ]
  | VList vs -> List.map as_string vs
  | v -> err "expected column name(s), got %s" (type_name v)

let as_float = function
  | VVal v -> Value.as_float v
  | VTensor (Dense.Scalar f) -> f
  | v -> err "expected a float, got %s" (type_name v)

let as_tensor = function
  | VTensor t -> t
  | VSeries { col; _ } ->
    Dense.Vector
      (Array.init (Column.length col) (fun i -> Column.float_at col i))
  | VDf d -> Df.to_matrix d
  | VVal v -> Dense.Scalar (Value.as_float v)
  | v -> err "expected an ndarray, got %s" (type_name v)

(* ------------------------------------------------------------------ *)
(* Scalar helpers                                                     *)
(* ------------------------------------------------------------------ *)

let scalar_binop (op : binop) (a : Value.t) (b : Value.t) : Value.t =
  let f =
    match op with
    | Add -> ( +. )
    | Sub -> ( -. )
    | Mult -> ( *. )
    | Div -> ( /. )
    | Mod -> Float.rem
    | Pow -> Float.pow
    | FloorDiv -> fun x y -> Float.of_int (int_of_float (x /. y))
    | BitAnd | BitOr -> err "bitwise op on scalars"
  in
  match (op, a, b) with
  | Add, Value.VString x, Value.VString y -> Value.VString (x ^ y)
  | (Add | Sub | Mult | Mod | FloorDiv), Value.VInt x, Value.VInt y ->
    Value.VInt
      (match op with
      | Add -> x + y
      | Sub -> x - y
      | Mult -> x * y
      | Mod -> if y = 0 then 0 else x mod y
      | FloorDiv -> if y = 0 then 0 else x / y
      | _ -> assert false)
  | _ -> Value.VFloat (f (Value.as_float a) (Value.as_float b))

let scalar_compare op (a : Value.t) (b : Value.t) : bool =
  (* coerce ISO strings against dates *)
  let a, b =
    match (a, b) with
    | Value.VDate _, Value.VString s when Value.looks_like_iso_date s ->
      (a, Value.VDate (Value.date_of_iso s))
    | Value.VString s, Value.VDate _ when Value.looks_like_iso_date s ->
      (Value.VDate (Value.date_of_iso s), b)
    | _ -> (a, b)
  in
  let c = Value.compare_values a b in
  match op with
  | Eq -> c = 0
  | NotEq -> c <> 0
  | Lt -> c < 0
  | LtE -> c <= 0
  | Gt -> c > 0
  | GtE -> c >= 0
  | In | NotIn -> err "in-comparison on scalars handled elsewhere"

(* ------------------------------------------------------------------ *)
(* Series/scalar broadcasting                                         *)
(* ------------------------------------------------------------------ *)

let broadcast_pair a b =
  match (a, b) with
  | VSeries x, VSeries y -> (x.col, y.col)
  | VSeries x, VVal v -> (x.col, Df.Series.broadcast v (Column.length x.col))
  | VVal v, VSeries y -> (Df.Series.broadcast v (Column.length y.col), y.col)
  | VSeries x, VTensor (Dense.Scalar f) ->
    (x.col, Df.Series.broadcast (Value.VFloat f) (Column.length x.col))
  | VTensor (Dense.Scalar f), VSeries y ->
    (Df.Series.broadcast (Value.VFloat f) (Column.length y.col), y.col)
  | _ -> err "cannot broadcast %s with %s" (type_name a) (type_name b)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

let rec eval (env : env) (e : expr) : value =
  match e with
  | Name n -> (
    match Hashtbl.find_opt env n with
    | Some v -> v
    | None -> err "undefined variable %s" n)
  | Int i -> VVal (Value.VInt i)
  | Float f -> VVal (Value.VFloat f)
  | Str s -> VVal (Value.VString s)
  | Bool b -> VVal (Value.VBool b)
  | NoneLit -> VNone
  | EList es -> VList (List.map (eval env) es)
  | ETuple es -> VList (List.map (eval env) es)
  | EDict kvs ->
    VDictV
      (List.map
         (fun (k, v) ->
           let key =
             match eval env k with
             | VVal (Value.VString s) -> s
             | kv -> err "dict keys must be strings, got %s" (type_name kv)
           in
           (key, eval env v))
         kvs)
  | Lambda (ps, body) -> VLambda (ps, body, env)
  | Attr (base, name) -> eval_attr env (eval env base) name
  | Subscript (base, idx) -> eval_subscript env (eval env base) idx
  | Call { func; args; kwargs } ->
    let recv = eval env func in
    let args = List.map (eval env) args in
    let kwargs = List.map (fun (k, v) -> (k, eval env v)) kwargs in
    apply env recv args kwargs
  | BinOp (op, a, b) -> eval_binop env op (eval env a) (eval env b)
  | UnaryOp (Neg, a) -> (
    match eval env a with
    | VVal (Value.VInt i) -> VVal (Value.VInt (-i))
    | VVal v -> VVal (Value.VFloat (-.Value.as_float v))
    | VTensor t -> VTensor (Dense.map (fun x -> -.x) t)
    | VSeries s ->
      VSeries
        { s with col = Df.Series.map_float (fun x -> -.x) s.col }
    | v -> err "cannot negate %s" (type_name v))
  | UnaryOp (Invert, a) -> (
    match eval env a with
    | VMask m -> VMask (Df.Series.logical_not m)
    | VSeries s ->
      VMask
        (Array.init (Column.length s.col) (fun i ->
             not (Column.bool_at s.col i)))
    | v -> err "cannot invert %s" (type_name v))
  | UnaryOp (NotOp, a) -> (
    match eval env a with
    | VVal (Value.VBool b) -> VVal (Value.VBool (not b))
    | VMask m -> VMask (Df.Series.logical_not m)
    | v -> err "cannot apply not to %s" (type_name v))
  | Compare (op, a, b) -> eval_compare env op (eval env a) (eval env b)
  | BoolOp (LAnd, a, b) -> (
    match (eval env a, eval env b) with
    | VVal (Value.VBool x), VVal (Value.VBool y) -> VVal (Value.VBool (x && y))
    | VMask x, VMask y -> VMask (Df.Series.logical_and x y)
    | x, y -> err "and: %s, %s" (type_name x) (type_name y))
  | BoolOp (LOr, a, b) -> (
    match (eval env a, eval env b) with
    | VVal (Value.VBool x), VVal (Value.VBool y) -> VVal (Value.VBool (x || y))
    | VMask x, VMask y -> VMask (Df.Series.logical_or x y)
    | x, y -> err "or: %s, %s" (type_name x) (type_name y))
  | IfExp { cond; then_; else_ } -> (
    match eval env cond with
    | VVal (Value.VBool true) -> eval env then_
    | VVal (Value.VBool false) -> eval env else_
    | v -> err "if-expression condition must be a bool, got %s" (type_name v))

and eval_binop env op a b =
  ignore env;
  match (op, a, b) with
  | BitAnd, _, _ ->
    let n = match a with VMask m -> Array.length m | _ -> 0 in
    VMask (Df.Series.logical_and (as_mask ~n a) (as_mask ~n b))
  | BitOr, _, _ ->
    let n = match a with VMask m -> Array.length m | _ -> 0 in
    VMask (Df.Series.logical_or (as_mask ~n a) (as_mask ~n b))
  | _, VVal x, VVal y -> VVal (scalar_binop op x y)
  | _, VTensor x, VTensor y -> (
    match op with
    | Add -> VTensor (Dense.add x y)
    | Sub -> VTensor (Dense.sub x y)
    | Mult -> VTensor (Dense.mul x y)
    | Div -> VTensor (Dense.div x y)
    | Pow -> VTensor (Dense.map2 Float.pow x y)
    | _ -> err "unsupported tensor op")
  | _, VTensor x, VVal v -> (
    let s = Dense.Scalar (Value.as_float v) in
    match op with
    | Add -> VTensor (Dense.add x s)
    | Sub -> VTensor (Dense.sub x s)
    | Mult -> VTensor (Dense.mul x s)
    | Div -> VTensor (Dense.div x s)
    | Pow -> VTensor (Dense.map (fun e -> Float.pow e (Value.as_float v)) x)
    | _ -> err "unsupported tensor op")
  | _, VVal v, VTensor x -> (
    let s = Dense.Scalar (Value.as_float v) in
    match op with
    | Add -> VTensor (Dense.add s x)
    | Sub -> VTensor (Dense.sub s x)
    | Mult -> VTensor (Dense.mul s x)
    | Div -> VTensor (Dense.div s x)
    | _ -> err "unsupported tensor op")
  | _, (VSeries _ | VVal _ | VMask _), (VSeries _ | VVal _ | VMask _) -> (
    let x, y = broadcast_pair a b in
    let col =
      match op with
      | Add -> Df.Series.add x y
      | Sub -> Df.Series.sub x y
      | Mult -> Df.Series.mul x y
      | Div -> Df.Series.div x y
      | Mod ->
        Column.of_ivec
          (Column.ivec_init (Column.length x) (fun i ->
               let d = Column.int_at y i in
               if d = 0 then 0 else Column.int_at x i mod d))
      | Pow ->
        Column.of_fvec
          (Column.fvec_init (Column.length x) (fun i ->
               Float.pow (Column.float_at x i) (Column.float_at y i)))
      | FloorDiv ->
        Column.of_ivec
          (Column.ivec_init (Column.length x) (fun i ->
               int_of_float (Column.float_at x i /. Column.float_at y i)))
      | BitAnd | BitOr -> assert false
    in
    VSeries { col; sname = "expr" })
  | _ -> err "binop %s on %s and %s" (binop_str op) (type_name a) (type_name b)

and eval_compare env op a b =
  ignore env;
  match (op, a, b) with
  | In, VVal x, VList vs ->
    VVal (Value.VBool (List.exists (fun v -> as_scalar v = x) vs))
  | NotIn, VVal x, VList vs ->
    VVal (Value.VBool (not (List.exists (fun v -> as_scalar v = x) vs)))
  | _, VVal x, VVal y -> VVal (Value.VBool (scalar_compare op x y))
  | In, VSeries s, VList vs ->
    VMask (Df.Series.isin s.col (List.map as_scalar vs))
  | _, (VSeries _ | VMask _), _ | _, _, (VSeries _ | VMask _) ->
    let x, y = broadcast_pair a b in
    let cmp =
      match op with
      | Eq -> `Eq
      | NotEq -> `Ne
      | Lt -> `Lt
      | LtE -> `Le
      | Gt -> `Gt
      | GtE -> `Ge
      | In | NotIn -> err "in-comparison needs a list"
    in
    VMask (Df.Series.compare_op cmp x y)
  | _, VTensor x, VVal v ->
    (* elementwise comparison producing a 0/1 tensor *)
    let k = Value.as_float v in
    let test =
      match op with
      | Eq -> fun e -> e = k
      | NotEq -> fun e -> e <> k
      | Lt -> fun e -> e < k
      | LtE -> fun e -> e <= k
      | Gt -> fun e -> e > k
      | GtE -> fun e -> e >= k
      | In | NotIn -> err "in on tensors"
    in
    VTensor (Dense.map (fun e -> if test e then 1. else 0.) x)
  | _ -> err "compare %s on %s and %s" (cmpop_str op) (type_name a) (type_name b)

(* ------------------------------------------------------------------ *)
(* Attributes                                                         *)
(* ------------------------------------------------------------------ *)

and eval_attr env (recv : value) (name : string) : value =
  ignore env;
  match (recv, name) with
  | VModule _, _ -> VBound (recv, name)
  | VDf d, name when Df.has_column d name ->
    VSeries { col = Df.column d name; sname = name }
  | VSeries s, "str" -> VAccessor ("str", VSeries s)
  | VSeries s, "dt" -> VAccessor ("dt", VSeries s)
  | VAccessor ("dt", VSeries s), "year" ->
    VSeries { s with col = Df.Series.dt_year s.col }
  | VAccessor ("dt", VSeries s), "month" ->
    VSeries { s with col = Df.Series.dt_month s.col }
  | VSeries s, "year" ->
    (* .dt.year handled at accessor; plain .year over dates too *)
    VSeries { col = Df.Series.dt_year s.col; sname = s.sname }
  | VTensor t, "T" -> VTensor (Dense.transpose t)
  | VTensor t, "shape" ->
    VList (List.map (fun d -> VVal (Value.VInt d)) (Dense.dims t))
  | VDf d, "columns" ->
    VList (List.map (fun c -> VVal (Value.VString c)) (Df.columns d))
  | _, _ -> VBound (recv, name)

(* ------------------------------------------------------------------ *)
(* Subscripts                                                         *)
(* ------------------------------------------------------------------ *)

and eval_subscript env (recv : value) (idx : index) : value =
  match (recv, idx) with
  | VDf d, Index i -> (
    match eval env i with
    | VVal (Value.VString c) -> VSeries { col = Df.column d c; sname = c }
    | VList cs -> VDf (Df.select d (List.map as_string cs))
    | VMask m -> VDf (Df.filter_mask d m)
    | VSeries s ->
      VDf
        (Df.filter_mask d
           (Array.init (Column.length s.col) (fun k -> Column.bool_at s.col k)))
    | v -> err "bad DataFrame subscript: %s" (type_name v))
  | VSeries s, Index i -> (
    match eval env i with
    | VMask m ->
      VSeries { s with col = Column.take s.col (mask_indices m) }
    | VVal (Value.VInt k) -> VVal (Column.get s.col k)
    | v -> err "bad Series subscript: %s" (type_name v))
  | VSeries s, Slice (a, b) ->
    (* positional row slice *)
    let n = Column.length s.col in
    let lo = match a with Some a -> as_int (eval env a) | None -> 0 in
    let hi = match b with Some b -> as_int (eval env b) | None -> n in
    let lo = max 0 lo and hi = min n hi in
    VSeries
      { s with col = Column.take s.col (Array.init (max 0 (hi - lo)) (fun k -> lo + k)) }
  | VDf d, Slice (a, b) ->
    let n = Df.n_rows d in
    let lo = match a with Some a -> as_int (eval env a) | None -> 0 in
    let hi = match b with Some b -> as_int (eval env b) | None -> n in
    let lo = max 0 lo and hi = min n hi in
    VDf (Sqldb.Relation.take d (Array.init (max 0 (hi - lo)) (fun k -> lo + k)))
  | VGrouped { gdf; by }, Index i -> (
    match eval env i with
    | VVal (Value.VString c) -> VGroupedSel { gdf; by; sel = c }
    | VList cs -> (
      match List.map as_string cs with
      | [ c ] -> VGroupedSel { gdf; by; sel = c }
      | _ -> err "group selection of multiple columns unsupported")
    | v -> err "bad GroupBy subscript: %s" (type_name v))
  | VTensor t, Index i -> (
    match (eval env i, t) with
    | VVal (Value.VInt k), Dense.Vector v -> VVal (Value.VFloat v.(k))
    | VTensor mask, _ -> (
      (* boolean fancy indexing over a vector *)
      match (t, mask) with
      | Dense.Vector v, Dense.Vector m ->
        let keep = ref [] in
        for k = Array.length v - 1 downto 0 do
          if m.(k) <> 0. then keep := v.(k) :: !keep
        done;
        VTensor (Dense.Vector (Array.of_list !keep))
      | _ -> err "unsupported tensor fancy indexing")
    | VMask m, Dense.Vector v ->
      let keep = ref [] in
      for k = Array.length v - 1 downto 0 do
        if m.(k) then keep := v.(k) :: !keep
      done;
      VTensor (Dense.Vector (Array.of_list !keep))
    | v, _ -> err "bad tensor subscript: %s" (type_name v))
  | VList vs, Index i -> List.nth vs (as_int (eval env i))
  | VVal (Value.VString s), Slice (a, b) ->
    let n = String.length s in
    let lo = match a with Some a -> as_int (eval env a) | None -> 0 in
    let hi = match b with Some b -> as_int (eval env b) | None -> n in
    VVal (Value.VString (String.sub s lo (min n hi - lo)))
  | v, _ -> err "unsupported subscript on %s" (type_name v)

and mask_indices m =
  let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 m in
  let idx = Array.make count 0 in
  let k = ref 0 in
  Array.iteri
    (fun i b ->
      if b then begin
        idx.(!k) <- i;
        incr k
      end)
    m;
  idx

(* ------------------------------------------------------------------ *)
(* Calls                                                              *)
(* ------------------------------------------------------------------ *)

and apply env (recv : value) (args : value list) (kwargs : (string * value) list)
    : value =
  match recv with
  | VLambda (ps, body, closure) ->
    let local = Hashtbl.copy closure in
    (try List.iter2 (fun p a -> Hashtbl.replace local p a) ps args
     with Invalid_argument _ -> err "lambda arity mismatch");
    eval local body
  | VBound (VModule "pd", fn) -> pd_call env fn args kwargs
  | VBound (VModule "np", fn) -> np_call env fn args kwargs
  | VBound (obj, meth) -> method_call env obj meth args kwargs
  | v -> err "cannot call %s" (type_name v)

and kwarg name kwargs = List.assoc_opt name kwargs

and get_how kwargs =
  match kwarg "how" kwargs with
  | Some (VVal (Value.VString "inner")) | None -> Df.Inner
  | Some (VVal (Value.VString "left")) -> Df.Left
  | Some (VVal (Value.VString "right")) -> Df.Right
  | Some (VVal (Value.VString "outer")) -> Df.Outer
  | Some (VVal (Value.VString "cross")) -> Df.Cross
  | Some v -> err "bad how=%s" (type_name v)

and pd_call env fn args kwargs =
  ignore env;
  match (fn, args) with
  | "DataFrame", [] -> (
    match kwarg "data" kwargs with
    | None -> VDf Df.empty
    | Some _ -> err "pd.DataFrame(data=...) unsupported")
  | "DataFrame", [ VDictV kvs ] ->
    let to_col = function
      | VTensor (Dense.Vector a) -> Column.of_floats a
      | VTensor (Dense.Matrix { cols = 1; data; _ }) -> Column.of_floats data
      | v -> as_series v
    in
    VDf (Df.create (List.map (fun (k, v) -> (k, to_col v)) kvs))
  | "concat", _ -> err "pd.concat not supported"
  | "to_datetime", [ v ] -> v
  | _ -> err "unsupported pandas function pd.%s" fn

and np_call env fn args kwargs =
  match (fn, args) with
  | "einsum", VVal (Value.VString spec) :: ops ->
    VTensor (Tensor.Einsum_exec.einsum spec (List.map as_tensor ops))
  | "where", [ cond; a; b ] -> (
    match cond with
    | VMask m ->
      let x, _ = broadcast_pair_or a b (Array.length m) in
      ignore x;
      let sa = to_col_n a (Array.length m) and sb = to_col_n b (Array.length m) in
      VSeries { col = Df.Series.where m sa sb; sname = "expr" }
    | VTensor (Dense.Vector c) ->
      let ta = as_tensor a and tb = as_tensor b in
      let pick i =
        if c.(i) <> 0. then
          match ta with
          | Dense.Vector v -> v.(i)
          | Dense.Scalar s -> s
          | _ -> err "np.where: bad then-value"
        else
          match tb with
          | Dense.Vector v -> v.(i)
          | Dense.Scalar s -> s
          | _ -> err "np.where: bad else-value"
      in
      VTensor (Dense.Vector (Array.init (Array.length c) pick))
    | v -> err "np.where: bad condition %s" (type_name v))
  | "array", [ VList vs ] -> (
    match vs with
    | VList _ :: _ ->
      VTensor
        (Dense.of_rows
           (List.map
              (fun row ->
                match row with
                | VList xs -> Array.of_list (List.map as_float xs)
                | v -> err "np.array: bad row %s" (type_name v))
              vs))
    | _ -> VTensor (Dense.Vector (Array.of_list (List.map as_float vs))))
  | "round", [ v ] -> (
    match v with
    | VTensor t -> VTensor (Dense.round_half t)
    | VSeries s ->
      VSeries { s with col = Df.Series.map_float Float.round s.col }
    | VVal x -> VVal (Value.VFloat (Float.round (Value.as_float x)))
    | v -> err "np.round: %s" (type_name v))
  | "sqrt", [ v ] -> (
    match v with
    | VTensor t -> VTensor (Dense.map Float.sqrt t)
    | VSeries s -> VSeries { s with col = Df.Series.map_float Float.sqrt s.col }
    | VVal x -> VVal (Value.VFloat (Float.sqrt (Value.as_float x)))
    | v -> err "np.sqrt: %s" (type_name v))
  | "dot", [ a; b ] ->
    VTensor (Tensor.Einsum_exec.einsum "ij,jk->ik" [ as_tensor a; as_tensor b ])
  | "transpose", [ a ] -> VTensor (Dense.transpose (as_tensor a))
  | "sum", [ a ] -> (
    match kwarg "axis" kwargs with
    | None -> VVal (Value.VFloat (Dense.sum_all (as_tensor a)))
    | Some ax -> VTensor (Dense.sum_axis (as_int ax) (as_tensor a)))
  | _ ->
    ignore env;
    err "unsupported numpy function np.%s" fn

and to_col_n v n =
  match v with
  | VSeries s -> s.col
  | VVal x -> Df.Series.broadcast x n
  | VMask m -> Column.of_bools m
  | v -> err "cannot use %s as column" (type_name v)

and broadcast_pair_or a b _n = (a, b)

(* ------------------------------------------------------------------ *)
(* Methods                                                            *)
(* ------------------------------------------------------------------ *)

and agg_spec_of_value (v : value) : string * Df.agg_fn =
  match v with
  | VList [ VVal (Value.VString col); VVal (Value.VString fn) ] ->
    (col, Df.agg_fn_of_string fn)
  | _ -> err "aggregation spec must be a (column, fn) tuple"

and method_call env (obj : value) (meth : string) args kwargs : value =
  match (obj, meth) with
  (* ---- DataFrame methods ---- *)
  | VDf d, "merge" -> (
    match args with
    | [ other ] ->
      let other = as_df other in
      let how = get_how kwargs in
      let left_on, right_on =
        match (kwarg "on" kwargs, kwarg "left_on" kwargs, kwarg "right_on" kwargs) with
        | Some on, _, _ -> (as_string_list on, as_string_list on)
        | None, Some l, Some r -> (as_string_list l, as_string_list r)
        | None, None, None when how = Df.Cross -> ([], [])
        | _ -> err "merge: missing on=/left_on=/right_on="
      in
      VDf (Df.merge ~how ~left_on ~right_on d other)
    | _ -> err "merge expects one positional argument")
  | VDf d, "groupby" -> (
    match args with
    | [ by ] -> VGrouped { gdf = d; by = as_string_list by }
    | _ -> err "groupby expects the key list")
  | VDf d, "sort_values" ->
    let by =
      match (args, kwarg "by" kwargs) with
      | [ v ], _ | [], Some v -> as_string_list v
      | _ -> err "sort_values: missing by"
    in
    let asc =
      match kwarg "ascending" kwargs with
      | None | Some (VVal (Value.VBool true)) -> List.map (fun _ -> true) by
      | Some (VVal (Value.VBool false)) -> List.map (fun _ -> false) by
      | Some (VList bs) ->
        List.map (function VVal (Value.VBool b) -> b | _ -> true) bs
      | Some v -> err "bad ascending=%s" (type_name v)
    in
    VDf (Df.sort_values d ~by:(List.combine by asc))
  | VDf d, "head" ->
    let n = match args with [ n ] -> as_int n | _ -> 5 in
    VDf (Df.head d n)
  | VDf d, "nlargest" -> (
    match args with
    | [ n; cols ] ->
      let by = as_string_list cols in
      VDf
        (Df.head
           (Df.sort_values d ~by:(List.map (fun c -> (c, false)) by))
           (as_int n))
    | _ -> err "nlargest(n, columns)")
  | VDf d, "drop" ->
    let cols =
      match args with
      | [ c ] -> as_string_list c
      | [] -> (
        match kwarg "columns" kwargs with
        | Some c -> as_string_list c
        | None -> err "drop: missing columns")
      | _ -> err "drop: bad arguments"
    in
    VDf (Df.drop_columns d cols)
  | VDf d, "rename" -> (
    match kwarg "columns" kwargs with
    | Some (VDictV kvs) ->
      VDf (Df.rename_columns d (List.map (fun (k, v) -> (k, as_string v)) kvs))
    | _ -> err "rename expects columns={...}")
  | VDf d, "drop_duplicates" -> VDf (Df.drop_duplicates d)
  | VDf d, "reset_index" -> VDf d
  | VDf d, "copy" -> VDf d
  | VDf d, "to_numpy" | VDf d, "values" -> VTensor (Df.to_matrix d)
  | VDf d, "count" -> VVal (Value.VInt (Df.n_rows d))
  | VDf d, "pivot_table" ->
    let gets k =
      match kwarg k kwargs with
      | Some v -> as_string v
      | None -> err "pivot_table: missing %s" k
    in
    let aggfunc =
      match kwarg "aggfunc" kwargs with
      | Some (VVal (Value.VString s)) -> Df.agg_fn_of_string s
      | None -> Df.AMean
      | Some v -> err "bad aggfunc %s" (type_name v)
    in
    VDf
      (Df.pivot_table d ~index:(gets "index") ~columns:(gets "columns")
         ~values:(gets "values") ~aggfunc)
  | VDf d, "assign" ->
    List.fold_left
      (fun acc (k, v) ->
        match acc with
        | VDf d' -> (
          match v with
          | VLambda _ -> (
            match apply env v [ VDf d' ] [] with
            | VSeries s -> VDf (Df.assign d' k s.col)
            | VMask m -> VDf (Df.assign d' k (Column.of_bools m))
            | v -> err "assign lambda must return a series, got %s" (type_name v))
          | VSeries s -> VDf (Df.assign d' k s.col)
          | VMask m -> VDf (Df.assign d' k (Column.of_bools m))
          | VVal x ->
            VDf (Df.assign d' k (Df.Series.broadcast x (Df.n_rows d')))
          | v -> err "assign: bad value %s" (type_name v))
        | _ -> assert false)
      (VDf d) kwargs
  (* ---- GroupBy ---- *)
  | VGrouped { gdf; by }, "agg" ->
    let aggs =
      List.map
        (fun (out, spec) ->
          let col, fn = agg_spec_of_value spec in
          (out, col, fn))
        kwargs
    in
    VDf (Df.groupby_agg gdf ~by ~aggs)
  | VGrouped { gdf; by }, "size" ->
    VDf (Df.groupby_agg gdf ~by ~aggs:[ ("size", "", Df.ASize) ])
  | VGrouped { gdf; by }, ("sum" | "min" | "max" | "mean" | "count") ->
    (* aggregate all non-key columns *)
    let fn = Df.agg_fn_of_string (if meth = "mean" then "mean" else meth) in
    let cols = List.filter (fun c -> not (List.mem c by)) (Df.columns gdf) in
    VDf (Df.groupby_agg gdf ~by ~aggs:(List.map (fun c -> (c, c, fn)) cols))
  | VGroupedSel { gdf; by; sel }, ("sum" | "min" | "max" | "mean" | "count" | "nunique" | "size") ->
    let fn = Df.agg_fn_of_string meth in
    VDf (Df.groupby_agg gdf ~by ~aggs:[ (sel, sel, fn) ])
  (* ---- Series ---- *)
  | VSeries s, "sum" -> VVal (Df.Series.sum s.col)
  | VSeries s, "min" -> VVal (Df.Series.min_ s.col)
  | VSeries s, "max" -> VVal (Df.Series.max_ s.col)
  | VSeries s, "mean" -> VVal (Df.Series.mean s.col)
  | VSeries s, "count" -> VVal (Value.VInt (Df.Series.count s.col))
  | VSeries s, "nunique" -> VVal (Value.VInt (Df.Series.nunique s.col))
  | VSeries s, "unique" -> VSeries { s with col = Df.Series.unique s.col }
  | VSeries s, "isin" -> (
    match args with
    | [ VList vs ] -> VMask (Df.Series.isin s.col (List.map as_scalar vs))
    | [ VSeries other ] -> VMask (Df.Series.isin_col s.col other.col)
    | [ VDf d ] when List.length (Df.columns d) = 1 ->
      VMask (Df.Series.isin_col s.col (Df.column d (List.hd (Df.columns d))))
    | _ -> err "isin expects a list or series")
  | VSeries s, "apply" -> (
    match args with
    | [ (VLambda _ as f) ] ->
      let n = Column.length s.col in
      let vals =
        Array.init n (fun i ->
            match apply env f [ VVal (Column.get s.col i) ] [] with
            | VVal v -> v
            | v -> err "apply lambda must return scalar, got %s" (type_name v))
      in
      let ty =
        if n = 0 then s.col.Column.ty
        else Value.type_of vals.(0)
      in
      VSeries { s with col = Column.of_values ty vals }
    | _ -> err "apply expects a lambda")
  | VSeries s, "astype" -> VSeries s
  | VSeries s, "round" ->
    let digits = match args with [ d ] -> as_int d | _ -> 0 in
    let scale = 10. ** float_of_int digits in
    VSeries
      { s with
        col =
          Df.Series.map_float (fun x -> Float.round (x *. scale) /. scale) s.col }
  | VSeries s, "to_numpy" ->
    VTensor
      (Dense.Vector
         (Array.init (Column.length s.col) (fun i -> Column.float_at s.col i)))
  | VSeries s, "tolist" ->
    VList
      (List.init (Column.length s.col) (fun i -> VVal (Column.get s.col i)))
  | VSeries s, "abs" ->
    VSeries { s with col = Df.Series.map_float Float.abs s.col }
  (* ---- str/dt accessors ---- *)
  | VAccessor ("str", VSeries s), "contains" -> (
    match args with
    | [ v ] -> VMask (Df.Series.str_contains s.col (as_string v))
    | _ -> err "str.contains expects a pattern")
  | VAccessor ("str", VSeries s), "startswith" -> (
    match args with
    | [ v ] -> VMask (Df.Series.str_startswith s.col (as_string v))
    | _ -> err "str.startswith expects a prefix")
  | VAccessor ("str", VSeries s), "endswith" -> (
    match args with
    | [ v ] -> VMask (Df.Series.str_endswith s.col (as_string v))
    | _ -> err "str.endswith expects a suffix")
  | VAccessor ("str", VSeries s), "slice" -> (
    match args with
    | [ a; b ] ->
      VSeries { s with col = Df.Series.str_slice s.col (as_int a) (as_int b) }
    | _ -> err "str.slice(start, stop)")
  (* ---- ndarray ---- *)
  | VTensor t, "sum" -> (
    match kwarg "axis" kwargs with
    | None -> VVal (Value.VFloat (Dense.sum_all t))
    | Some ax -> VTensor (Dense.sum_axis (as_int ax) t))
  | VTensor t, "transpose" -> VTensor (Dense.transpose t)
  | VTensor t, "all" -> VVal (Value.VBool (Dense.all_true t))
  | VTensor t, "nonzero" -> VTensor (Dense.nonzero t)
  | VTensor t, "round" -> VTensor (Dense.round_half t)
  | VTensor t, "compress" -> (
    match args with
    | [ mask ] ->
      let m =
        match mask with
        | VMask m -> m
        | VList vs ->
          Array.of_list
            (List.map (function VVal v -> Value.as_int v <> 0 | _ -> false) vs)
        | VTensor (Dense.Vector v) -> Array.map (fun x -> x <> 0.) v
        | v -> err "compress: bad mask %s" (type_name v)
      in
      VTensor (Dense.compress_cols m t)
    | _ -> err "compress expects a mask")
  | VTensor t, "tolist" -> (
    match t with
    | Dense.Vector v ->
      VList (Array.to_list (Array.map (fun f -> VVal (Value.VFloat f)) v))
    | _ -> err "tolist on non-vector")
  | VVal v, "item" -> VVal v
  | obj, meth -> err "unsupported method %s.%s" (type_name obj) meth

(* ------------------------------------------------------------------ *)
(* Statements / functions                                             *)
(* ------------------------------------------------------------------ *)

let exec_stmt (env : env) (s : stmt) : value option =
  match s with
  | SAssign (TName n, e) ->
    Hashtbl.replace env n (eval env e);
    None
  | SAssign (TSubscript (Name dfvar, key), e) -> (
    (* df['col'] = series — rebinds the variable to an extended frame *)
    let key =
      match eval env key with
      | VVal (Value.VString s) -> s
      | v -> err "column assignment key must be a string, got %s" (type_name v)
    in
    match Hashtbl.find_opt env dfvar with
    | Some (VDf d) ->
      let col =
        match eval env e with
        | VSeries s -> s.col
        | VMask m -> Column.of_bools m
        | VVal v ->
          Df.Series.broadcast v (max 1 (Df.n_rows d))
        | v -> err "cannot assign %s as a column" (type_name v)
      in
      Hashtbl.replace env dfvar (VDf (Df.assign d key col));
      None
    | Some v -> err "%s is not a DataFrame (%s)" dfvar (type_name v)
    | None -> err "undefined variable %s" dfvar)
  | SAssign (TSubscript _, _) -> err "unsupported subscript assignment"
  | SAssign (TAttr _, _) -> err "attribute assignment not supported"
  | SAssign (TTuple _, _) -> err "tuple assignment not supported"
  | SExpr e ->
    ignore (eval env e);
    None
  | SReturn e -> Some (eval env e)

let base_env () : env =
  let env = Hashtbl.create 32 in
  Hashtbl.replace env "pd" (VModule "pd");
  Hashtbl.replace env "np" (VModule "np");
  env

(* Run function [fname] of [src] with positional [args] bound to its
   parameters. *)
let run_function (m : Frontend.Ast.module_) ~(fname : string)
    ~(args : value list) : value =
  match List.find_opt (fun f -> String.equal f.fname fname) m.funcs with
  | None -> err "no function %s" fname
  | Some f ->
    let env = base_env () in
    (try List.iter2 (fun p a -> Hashtbl.replace env p a) f.params args
     with Invalid_argument _ ->
       err "arity mismatch calling %s: expected %d args" fname
         (List.length f.params));
    let result = ref VNone in
    (try
       List.iter
         (fun s ->
           match exec_stmt env s with
           | Some v ->
             result := v;
             raise Exit
           | None -> ())
         f.body
     with Exit -> ());
    !result
