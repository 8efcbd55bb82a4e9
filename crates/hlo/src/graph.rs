//! The HLO graph IR: ops, nodes, builder with shape inference.

use std::fmt;
use std::ops::Deref;

use tpu_numerics::activation::Activation;
use tpu_numerics::DType;

use crate::shape::{ShapeError, TensorShape};

/// Identifier of a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// Raw index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index.
    ///
    /// Ids are only meaningful inside the graph they came from. Builder
    /// methods reject out-of-range operands with
    /// [`ShapeError::UnknownOperand`], and the
    /// [`Verifier`](crate::verify::Verifier) rejects dangling ids in
    /// hand-assembled graphs, so a fabricated id cannot corrupt a graph
    /// silently — this constructor exists for pass rewrites and for
    /// mutation tests that must build deliberately broken graphs.
    pub fn from_raw(index: u32) -> OpId {
        OpId(index)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Kinds of binary elementwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryKind {
    /// Elementwise addition.
    Add,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise maximum.
    Max,
}

/// An HLO operation. Operand ids always refer to earlier nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum HloOp {
    /// A runtime input (activations).
    Parameter,
    /// A compile-time constant (weights); lives in HBM or CMEM.
    Constant,
    /// `lhs [b, k] @ rhs [k, n] -> [b, n]`. `rhs` is typically weights.
    Dot {
        /// Left operand (activations).
        lhs: OpId,
        /// Right operand (weights).
        rhs: OpId,
    },
    /// NHWC 2-D convolution with "same" padding.
    Conv2d {
        /// Input `[n, h, w, cin]`.
        input: OpId,
        /// Kernel `[kh, kw, cin, cout]`.
        kernel: OpId,
        /// Stride in both spatial dimensions.
        stride: u64,
    },
    /// Unary nonlinearity.
    Activate {
        /// Input.
        input: OpId,
        /// Which function.
        act: Activation,
    },
    /// Binary elementwise op (shapes must match).
    Binary {
        /// First operand.
        a: OpId,
        /// Second operand.
        b: OpId,
        /// Which op.
        kind: BinaryKind,
    },
    /// Softmax over the trailing dimension.
    Softmax {
        /// Input.
        input: OpId,
    },
    /// Layer normalization over the trailing dimension.
    LayerNorm {
        /// Input.
        input: OpId,
    },
    /// Embedding lookup: `ids [b, s]` into `table [vocab, dim]` giving
    /// `[b, s, dim]`.
    Embedding {
        /// The embedding table (a `Constant`).
        table: OpId,
        /// Batch of sequences.
        batch: u64,
        /// Ids per sequence.
        seq: u64,
    },
    /// Max pooling over `[n, h, w, c]` with square window and stride.
    MaxPool2d {
        /// Input.
        input: OpId,
        /// Window edge length (also the stride).
        window: u64,
    },
    /// Element-count-preserving reshape.
    Reshape {
        /// Input.
        input: OpId,
    },
    /// Elementwise combination of `factor` interleaved gates:
    /// `[.., n] -> [.., n/factor]` (LSTM cell math: `i*c~ + f*c`, output
    /// gating). Pure VPU work.
    GateReduce {
        /// Input (trailing dim divisible by `factor`).
        input: OpId,
        /// Gate count combined into one output element.
        factor: u64,
    },
    /// Batched matmul of two *activation* tensors (attention's `QK^T`
    /// and `AV`): `a` is `[batch, m, k]`, `b` is `[batch, k, n]`, both
    /// live in VMEM — no weight streaming.
    BatchMatmul {
        /// Left operand.
        a: OpId,
        /// Right operand.
        b: OpId,
        /// Batch count.
        batch: u64,
        /// Rows per batch.
        m: u64,
        /// Contraction size.
        k: u64,
        /// Columns per batch.
        n: u64,
    },
}

/// The operand ids of one op, in operand order, held inline (no op has
/// more than two). Derefs to `&[OpId]` and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operands {
    /// Slots past `len` hold `OpId(0)`, so the derived `PartialEq`
    /// compares only live ids.
    ids: [OpId; 2],
    len: u8,
}

impl Operands {
    fn of(ids: &[OpId]) -> Operands {
        let mut inline = [OpId(0); 2];
        inline[..ids.len()].copy_from_slice(ids);
        Operands {
            ids: inline,
            len: ids.len() as u8,
        }
    }
}

impl Deref for Operands {
    type Target = [OpId];

    fn deref(&self) -> &[OpId] {
        &self.ids[..self.len as usize]
    }
}

impl IntoIterator for Operands {
    type Item = OpId;
    type IntoIter = std::iter::Take<std::array::IntoIter<OpId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(self.len as usize)
    }
}

impl HloOp {
    /// Operand ids of this op, in operand order.
    pub fn operands(&self) -> Operands {
        match *self {
            HloOp::Parameter | HloOp::Constant => Operands::of(&[]),
            HloOp::Dot { lhs, rhs } => Operands::of(&[lhs, rhs]),
            HloOp::Conv2d { input, kernel, .. } => Operands::of(&[input, kernel]),
            HloOp::Activate { input, .. }
            | HloOp::Softmax { input }
            | HloOp::LayerNorm { input }
            | HloOp::MaxPool2d { input, .. }
            | HloOp::Reshape { input }
            | HloOp::GateReduce { input, .. } => Operands::of(&[input]),
            HloOp::Binary { a, b, .. } | HloOp::BatchMatmul { a, b, .. } => Operands::of(&[a, b]),
            HloOp::Embedding { table, .. } => Operands::of(&[table]),
        }
    }

    /// Short mnemonic for display and step tags.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            HloOp::Parameter => "param",
            HloOp::Constant => "const",
            HloOp::Dot { .. } => "dot",
            HloOp::Conv2d { .. } => "conv2d",
            HloOp::Activate { .. } => "act",
            HloOp::Binary { .. } => "binary",
            HloOp::Softmax { .. } => "softmax",
            HloOp::LayerNorm { .. } => "layernorm",
            HloOp::Embedding { .. } => "embed",
            HloOp::MaxPool2d { .. } => "maxpool",
            HloOp::Reshape { .. } => "reshape",
            HloOp::GateReduce { .. } => "gates",
            HloOp::BatchMatmul { .. } => "bmm",
        }
    }

    /// Whether this is a pure elementwise/normalization op that can fuse
    /// into a matmul/conv producer.
    pub fn is_fusible_consumer(&self) -> bool {
        matches!(
            self,
            HloOp::Activate { .. }
                | HloOp::Binary { .. }
                | HloOp::Softmax { .. }
                | HloOp::LayerNorm { .. }
                | HloOp::GateReduce { .. }
        )
    }

    /// Whether this op runs on the MXU (vs VPU/DMA).
    pub fn is_matrix_op(&self) -> bool {
        matches!(
            self,
            HloOp::Dot { .. } | HloOp::Conv2d { .. } | HloOp::BatchMatmul { .. }
        )
    }
}

/// A node: an op plus its inferred output shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// This node's id.
    pub id: OpId,
    /// The operation.
    pub op: HloOp,
    /// Inferred output shape.
    pub shape: TensorShape,
}

/// An HLO computation graph in SSA form (ids are topologically ordered).
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    dtype: DType,
    nodes: Vec<Node>,
    outputs: Vec<OpId>,
}

impl Graph {
    /// Creates an empty graph computing in `dtype`.
    pub fn new(name: &str, dtype: DType) -> Graph {
        Graph {
            name: name.to_owned(),
            dtype,
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compute precision of the graph.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Returns a copy of this graph computing in a different precision
    /// (the int8-vs-bf16 experiment re-compiles the same topology).
    pub fn with_dtype(&self, dtype: DType) -> Graph {
        let mut g = self.clone();
        g.dtype = dtype;
        g
    }

    /// The nodes in topological (id) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The designated outputs.
    pub fn outputs(&self) -> &[OpId] {
        &self.outputs
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this graph.
    pub fn node(&self, id: OpId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up a node, returning `None` for a dangling id.
    pub fn get(&self, id: OpId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Looks up an operand, rejecting dangling ids with a typed error.
    fn operand(&self, id: OpId, context: &'static str) -> Result<&Node, ShapeError> {
        self.nodes
            .get(id.index())
            .ok_or(ShapeError::UnknownOperand {
                context,
                index: id.index(),
                nodes: self.nodes.len(),
            })
    }

    /// Marks a node as a graph output.
    pub fn mark_output(&mut self, id: OpId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Assembles a graph directly from nodes and outputs, with no
    /// checking whatsoever.
    ///
    /// This is the escape hatch the pass framework rewrites through and
    /// mutation tests corrupt through; anything built this way must pass
    /// [`Verifier::verify_graph`](crate::verify::Verifier::verify_graph)
    /// before it reaches lowering — `compile` runs it unconditionally.
    pub fn from_parts(name: &str, dtype: DType, nodes: Vec<Node>, outputs: Vec<OpId>) -> Graph {
        Graph {
            name: name.to_owned(),
            dtype,
            nodes,
            outputs,
        }
    }

    /// Decomposes the graph into `(name, dtype, nodes, outputs)`,
    /// the inverse of [`Graph::from_parts`].
    pub fn into_parts(self) -> (String, DType, Vec<Node>, Vec<OpId>) {
        (self.name, self.dtype, self.nodes, self.outputs)
    }

    fn insert(&mut self, op: HloOp, shape: TensorShape) -> OpId {
        let id = OpId(self.nodes.len() as u32);
        self.nodes.push(Node { id, op, shape });
        id
    }

    /// Adds a runtime input of the given shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] for invalid shapes.
    pub fn parameter(&mut self, dims: &[u64]) -> Result<OpId, ShapeError> {
        let shape = TensorShape::new(dims)?;
        Ok(self.insert(HloOp::Parameter, shape))
    }

    /// Adds a weight tensor of the given shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] for invalid shapes.
    pub fn constant(&mut self, dims: &[u64]) -> Result<OpId, ShapeError> {
        let shape = TensorShape::new(dims)?;
        Ok(self.insert(HloOp::Constant, shape))
    }

    /// Adds `lhs @ rhs`. Accepts `[.., k] @ [k, n]`; leading dims of
    /// `lhs` are flattened into the row dimension.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the contraction dims differ or `rhs`
    /// is not rank 2.
    pub fn dot(&mut self, lhs: OpId, rhs: OpId) -> Result<OpId, ShapeError> {
        let out = self.dot_shape(lhs, rhs)?;
        Ok(self.insert(HloOp::Dot { lhs, rhs }, out))
    }

    fn dot_shape(&self, lhs: OpId, rhs: OpId) -> Result<TensorShape, ShapeError> {
        let ls = self.operand(lhs, "dot lhs")?.shape;
        let rs = self.operand(rhs, "dot rhs")?.shape;
        if rs.rank() != 2 {
            return Err(ShapeError::BadRank {
                context: "dot rhs",
                found: rs.rank(),
                expected: 2,
            });
        }
        if ls.trailing() != rs.leading() {
            return Err(ShapeError::Mismatch {
                context: "dot contraction",
                lhs: ls,
                rhs: rs,
            });
        }
        ls.with_trailing(rs.trailing())
    }

    /// Adds an NHWC conv with "same" padding.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on rank or channel mismatches.
    pub fn conv2d(&mut self, input: OpId, kernel: OpId, stride: u64) -> Result<OpId, ShapeError> {
        let stride = stride.max(1);
        let out = self.conv2d_shape(input, kernel, stride)?;
        Ok(self.insert(
            HloOp::Conv2d {
                input,
                kernel,
                stride,
            },
            out,
        ))
    }

    fn conv2d_shape(
        &self,
        input: OpId,
        kernel: OpId,
        stride: u64,
    ) -> Result<TensorShape, ShapeError> {
        let is = self.operand(input, "conv2d input")?.shape;
        let ks = self.operand(kernel, "conv2d kernel")?.shape;
        if is.rank() != 4 {
            return Err(ShapeError::BadRank {
                context: "conv2d input",
                found: is.rank(),
                expected: 4,
            });
        }
        if ks.rank() != 4 {
            return Err(ShapeError::BadRank {
                context: "conv2d kernel",
                found: ks.rank(),
                expected: 4,
            });
        }
        if is.dims()[3] != ks.dims()[2] {
            return Err(ShapeError::Mismatch {
                context: "conv2d channels",
                lhs: is,
                rhs: ks,
            });
        }
        let stride = stride.max(1);
        let (n, h, w) = (is.dims()[0], is.dims()[1], is.dims()[2]);
        let cout = ks.dims()[3];
        TensorShape::new(&[n, h.div_ceil(stride), w.div_ceil(stride), cout])
    }

    /// Adds a unary nonlinearity.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] for dangling operand ids.
    pub fn activate(&mut self, input: OpId, act: Activation) -> Result<OpId, ShapeError> {
        let shape = self.unary_shape(input, "activate input")?;
        Ok(self.insert(HloOp::Activate { input, act }, shape))
    }

    fn unary_shape(&self, input: OpId, context: &'static str) -> Result<TensorShape, ShapeError> {
        Ok(self.operand(input, context)?.shape)
    }

    /// Shorthand for ReLU.
    pub fn relu(&mut self, input: OpId) -> Result<OpId, ShapeError> {
        self.activate(input, Activation::Relu)
    }

    /// Shorthand for GELU.
    pub fn gelu(&mut self, input: OpId) -> Result<OpId, ShapeError> {
        self.activate(input, Activation::Gelu)
    }

    /// Adds a binary elementwise op.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn binary(&mut self, a: OpId, b: OpId, kind: BinaryKind) -> Result<OpId, ShapeError> {
        let out = self.binary_shape(a, b)?;
        Ok(self.insert(HloOp::Binary { a, b, kind }, out))
    }

    fn binary_shape(&self, a: OpId, b: OpId) -> Result<TensorShape, ShapeError> {
        let sa = self.operand(a, "binary lhs")?.shape;
        let sb = self.operand(b, "binary rhs")?.shape;
        if sa != sb {
            return Err(ShapeError::Mismatch {
                context: "binary operands",
                lhs: sa,
                rhs: sb,
            });
        }
        Ok(sa)
    }

    /// Shorthand for elementwise add.
    pub fn add(&mut self, a: OpId, b: OpId) -> Result<OpId, ShapeError> {
        self.binary(a, b, BinaryKind::Add)
    }

    /// Shorthand for elementwise multiply.
    pub fn mul(&mut self, a: OpId, b: OpId) -> Result<OpId, ShapeError> {
        self.binary(a, b, BinaryKind::Mul)
    }

    /// Adds softmax over the trailing dimension.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] for dangling operand ids.
    pub fn softmax(&mut self, input: OpId) -> Result<OpId, ShapeError> {
        let shape = self.unary_shape(input, "softmax input")?;
        Ok(self.insert(HloOp::Softmax { input }, shape))
    }

    /// Adds layer norm over the trailing dimension.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] for dangling operand ids.
    pub fn layer_norm(&mut self, input: OpId) -> Result<OpId, ShapeError> {
        let shape = self.unary_shape(input, "layer_norm input")?;
        Ok(self.insert(HloOp::LayerNorm { input }, shape))
    }

    /// Adds an embedding lookup of `batch x seq` ids into `table`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the table is not rank 2 or counts are 0.
    pub fn embedding(&mut self, table: OpId, batch: u64, seq: u64) -> Result<OpId, ShapeError> {
        let out = self.embedding_shape(table, batch, seq)?;
        Ok(self.insert(HloOp::Embedding { table, batch, seq }, out))
    }

    fn embedding_shape(
        &self,
        table: OpId,
        batch: u64,
        seq: u64,
    ) -> Result<TensorShape, ShapeError> {
        let ts = self.operand(table, "embedding table")?.shape;
        if ts.rank() != 2 {
            return Err(ShapeError::BadRank {
                context: "embedding table",
                found: ts.rank(),
                expected: 2,
            });
        }
        TensorShape::new(&[batch, seq, ts.trailing()])
    }

    /// Adds square max pooling.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if input is not rank 4.
    pub fn max_pool2d(&mut self, input: OpId, window: u64) -> Result<OpId, ShapeError> {
        let window = window.max(1);
        let out = self.max_pool2d_shape(input, window)?;
        Ok(self.insert(HloOp::MaxPool2d { input, window }, out))
    }

    fn max_pool2d_shape(&self, input: OpId, window: u64) -> Result<TensorShape, ShapeError> {
        let is = self.operand(input, "maxpool input")?.shape;
        if is.rank() != 4 {
            return Err(ShapeError::BadRank {
                context: "maxpool input",
                found: is.rank(),
                expected: 4,
            });
        }
        let window = window.max(1);
        let (n, h, w, c) = (is.dims()[0], is.dims()[1], is.dims()[2], is.dims()[3]);
        TensorShape::new(&[n, h.div_ceil(window), w.div_ceil(window), c])
    }

    /// Combines `factor` interleaved gates elementwise, shrinking the
    /// trailing dimension (LSTM cell update).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `factor` divides the trailing dim.
    pub fn gate_reduce(&mut self, input: OpId, factor: u64) -> Result<OpId, ShapeError> {
        let factor = factor.max(1);
        let out = self.gate_reduce_shape(input, factor)?;
        Ok(self.insert(HloOp::GateReduce { input, factor }, out))
    }

    fn gate_reduce_shape(&self, input: OpId, factor: u64) -> Result<TensorShape, ShapeError> {
        let is = self.operand(input, "gate_reduce input")?.shape;
        let factor = factor.max(1);
        if !is.trailing().is_multiple_of(factor) {
            return Err(ShapeError::Mismatch {
                context: "gate_reduce factor must divide trailing dim",
                lhs: is,
                rhs: TensorShape::new(&[factor])?,
            });
        }
        is.with_trailing(is.trailing() / factor)
    }

    /// Adds a batched activation-by-activation matmul (`[batch, m, k] @
    /// [batch, k, n]`). Operands are checked by element count so
    /// reshaped views qualify.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if operand element counts do not match
    /// the requested dimensions.
    pub fn batch_matmul(
        &mut self,
        a: OpId,
        b: OpId,
        batch: u64,
        m: u64,
        k: u64,
        n: u64,
    ) -> Result<OpId, ShapeError> {
        let out = self.batch_matmul_shape(a, b, batch, m, k, n)?;
        Ok(self.insert(
            HloOp::BatchMatmul {
                a,
                b,
                batch,
                m,
                k,
                n,
            },
            out,
        ))
    }

    fn batch_matmul_shape(
        &self,
        a: OpId,
        b: OpId,
        batch: u64,
        m: u64,
        k: u64,
        n: u64,
    ) -> Result<TensorShape, ShapeError> {
        let sa = self.operand(a, "batch_matmul lhs")?.shape;
        let sb = self.operand(b, "batch_matmul rhs")?.shape;
        if sa.elements() != batch * m * k {
            return Err(ShapeError::Mismatch {
                context: "batch_matmul lhs elements",
                lhs: sa,
                rhs: TensorShape::new(&[batch, m, k])?,
            });
        }
        if sb.elements() != batch * k * n {
            return Err(ShapeError::Mismatch {
                context: "batch_matmul rhs elements",
                lhs: sb,
                rhs: TensorShape::new(&[batch, k, n])?,
            });
        }
        TensorShape::new(&[batch, m, n])
    }

    /// Adds a reshape to `dims` (same element count).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ElementCountChanged`] if counts differ.
    pub fn reshape(&mut self, input: OpId, dims: &[u64]) -> Result<OpId, ShapeError> {
        let from = self.operand(input, "reshape input")?.shape.elements();
        let out = TensorShape::new(dims)?;
        if out.elements() != from {
            return Err(ShapeError::ElementCountChanged {
                from,
                to: out.elements(),
            });
        }
        Ok(self.insert(HloOp::Reshape { input }, out))
    }

    /// Recomputes the output shape of `node` from its op and its
    /// operands' stored shapes, exactly as the builder methods would.
    ///
    /// `Parameter` and `Constant` shapes are declared rather than
    /// inferred, so their stored shape is returned as-is; a `Reshape`'s
    /// target dims likewise live only in the stored shape, so it is
    /// returned after re-checking element conservation. The
    /// [`Verifier`](crate::verify::Verifier) compares this against the
    /// stored shape to catch hand-assembled or pass-corrupted graphs.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when an operand id is dangling or the
    /// operands no longer satisfy the op's shape constraints.
    pub fn reinfer(&self, node: &Node) -> Result<TensorShape, ShapeError> {
        match node.op {
            HloOp::Parameter | HloOp::Constant => Ok(node.shape),
            HloOp::Dot { lhs, rhs } => self.dot_shape(lhs, rhs),
            HloOp::Conv2d {
                input,
                kernel,
                stride,
            } => self.conv2d_shape(input, kernel, stride),
            HloOp::Activate { input, .. } => self.unary_shape(input, "activate input"),
            HloOp::Softmax { input } => self.unary_shape(input, "softmax input"),
            HloOp::LayerNorm { input } => self.unary_shape(input, "layer_norm input"),
            HloOp::Binary { a, b, .. } => self.binary_shape(a, b),
            HloOp::Embedding { table, batch, seq } => self.embedding_shape(table, batch, seq),
            HloOp::MaxPool2d { input, window } => self.max_pool2d_shape(input, window),
            HloOp::GateReduce { input, factor } => self.gate_reduce_shape(input, factor),
            HloOp::BatchMatmul {
                a,
                b,
                batch,
                m,
                k,
                n,
            } => self.batch_matmul_shape(a, b, batch, m, k, n),
            HloOp::Reshape { input } => {
                let from = self.operand(input, "reshape input")?.shape.elements();
                let to = node.shape.elements();
                if to != from {
                    return Err(ShapeError::ElementCountChanged { from, to });
                }
                Ok(node.shape)
            }
        }
    }

    /// Total weight bytes (all `Constant` nodes) at the graph's dtype.
    pub fn weight_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, HloOp::Constant))
            .map(|n| n.shape.bytes(self.dtype))
            .sum()
    }

    /// Number of weight parameters.
    pub fn weight_count(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, HloOp::Constant))
            .map(|n| n.shape.elements())
            .sum()
    }

    /// MXU + VPU operations per execution of the graph.
    pub fn flops(&self) -> u64 {
        self.nodes.iter().map(|n| self.node_flops(n)).sum()
    }

    /// Operations attributable to one node.
    pub fn node_flops(&self, n: &Node) -> u64 {
        match n.op {
            HloOp::Dot { lhs, rhs } => {
                let k = self.node(rhs).shape.leading();
                let rows: u64 = self.node(lhs).shape.elements() / k;
                2 * rows * k * self.node(rhs).shape.trailing()
            }
            HloOp::Conv2d { kernel, .. } => {
                let ks = &self.node(kernel).shape;
                let (kh, kw, cin, _cout) = (ks.dims()[0], ks.dims()[1], ks.dims()[2], ks.dims()[3]);
                // Output positions x kernel volume x cout x 2.
                2 * n.shape.elements() / n.shape.dims()[3] * (kh * kw * cin) * n.shape.dims()[3]
            }
            HloOp::Activate { act, .. } => n.shape.elements() * act.vpu_ops_per_element().max(1),
            HloOp::Binary { .. } => n.shape.elements(),
            HloOp::Softmax { .. } | HloOp::LayerNorm { .. } => 8 * n.shape.elements(),
            HloOp::MaxPool2d { window, .. } => n.shape.elements() * window * window,
            HloOp::BatchMatmul { batch, m, k, n, .. } => 2 * batch * m * k * n,
            HloOp::GateReduce { factor, .. } => n.shape.elements() * factor,
            HloOp::Embedding { .. } | HloOp::Reshape { .. } => 0,
            HloOp::Parameter | HloOp::Constant => 0,
        }
    }

    /// Operational intensity estimate: flops over (weights + IO) bytes.
    pub fn intensity_estimate(&self) -> f64 {
        let io: u64 = self
            .nodes
            .iter()
            .filter(|n| matches!(n.op, HloOp::Parameter))
            .map(|n| n.shape.bytes(self.dtype))
            .sum::<u64>()
            + self
                .outputs
                .iter()
                .map(|&o| self.node(o).shape.bytes(self.dtype))
                .sum::<u64>();
        let bytes = self.weight_bytes() + io;
        if bytes == 0 {
            return 0.0;
        }
        self.flops() as f64 / bytes as f64
    }

    /// Consumers of each node (indexed by `OpId::index`).
    pub fn consumers(&self) -> Vec<Vec<OpId>> {
        let mut uses = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for operand in n.op.operands() {
                uses[operand.index()].push(n.id);
            }
        }
        uses
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph `{}` ({}, {} nodes, {:.1}M params, {:.2} GFLOP)",
            self.name,
            self.dtype,
            self.nodes.len(),
            self.weight_count() as f64 / 1e6,
            self.flops() as f64 / 1e9,
        )?;
        for n in &self.nodes {
            write!(f, "  {} = {} {}", n.id, n.op.mnemonic(), n.shape)?;
            let ops = n.op.operands();
            if !ops.is_empty() {
                write!(f, " (")?;
                for (i, o) in ops.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{o}")?;
                }
                write!(f, ")")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp() -> Graph {
        let mut g = Graph::new("mlp", DType::Bf16);
        let x = g.parameter(&[8, 256]).unwrap();
        let w1 = g.constant(&[256, 512]).unwrap();
        let h = g.dot(x, w1).unwrap();
        let h = g.relu(h).unwrap();
        let w2 = g.constant(&[512, 10]).unwrap();
        let y = g.dot(h, w2).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn dot_shape_inference() {
        let g = mlp();
        assert_eq!(g.node(OpId(2)).shape.dims(), &[8, 512]);
        assert_eq!(g.node(OpId(5)).shape.dims(), &[8, 10]);
        crate::Verifier::new().verify_graph(&g).unwrap();
    }

    #[test]
    fn dot_rejects_mismatch() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 256]).unwrap();
        let w = g.constant(&[300, 512]).unwrap();
        assert!(matches!(
            g.dot(x, w).unwrap_err(),
            ShapeError::Mismatch { .. }
        ));
        let w3 = g.constant(&[2, 3, 4]).unwrap();
        assert!(matches!(
            g.dot(x, w3).unwrap_err(),
            ShapeError::BadRank { .. }
        ));
    }

    #[test]
    fn dot_flattens_leading_dims() {
        // [b, s, k] @ [k, n] -> [b, s, n] (BERT-style).
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 128, 768]).unwrap();
        let w = g.constant(&[768, 3072]).unwrap();
        let y = g.dot(x, w).unwrap();
        assert_eq!(g.node(y).shape.dims(), &[4, 128, 3072]);
        assert_eq!(g.node_flops(g.node(y)), 2 * 4 * 128 * 768 * 3072);
    }

    #[test]
    fn conv_shape_and_flops() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[1, 56, 56, 64]).unwrap();
        let k = g.constant(&[3, 3, 64, 128]).unwrap();
        let y = g.conv2d(x, k, 1).unwrap();
        assert_eq!(g.node(y).shape.dims(), &[1, 56, 56, 128]);
        let expect = 2 * (56 * 56) * (3 * 3 * 64) * 128;
        assert_eq!(g.node_flops(g.node(y)), expect);
        // Strided halves spatial dims (same padding, ceil).
        let y2 = g.conv2d(x, k, 2).unwrap();
        assert_eq!(g.node(y2).shape.dims(), &[1, 28, 28, 128]);
    }

    #[test]
    fn conv_rejects_bad_ranks_and_channels() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[1, 56, 56, 64]).unwrap();
        let bad_k = g.constant(&[3, 3, 32, 128]).unwrap();
        assert!(matches!(
            g.conv2d(x, bad_k, 1).unwrap_err(),
            ShapeError::Mismatch { .. }
        ));
        let flat = g.parameter(&[8, 64]).unwrap();
        let k = g.constant(&[3, 3, 64, 128]).unwrap();
        assert!(matches!(
            g.conv2d(flat, k, 1).unwrap_err(),
            ShapeError::BadRank { .. }
        ));
    }

    #[test]
    fn weight_accounting() {
        let g = mlp();
        assert_eq!(g.weight_count(), 256 * 512 + 512 * 10);
        assert_eq!(g.weight_bytes(), 2 * (256 * 512 + 512 * 10));
        let int8 = g.with_dtype(DType::Int8);
        assert_eq!(int8.weight_bytes(), 256 * 512 + 512 * 10);
    }

    #[test]
    fn binary_requires_matching_shapes() {
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.parameter(&[4, 4]).unwrap();
        let b = g.parameter(&[4, 5]).unwrap();
        assert!(g.binary(a, b, BinaryKind::Add).is_err());
        let c = g.parameter(&[4, 4]).unwrap();
        assert!(g.add(a, c).is_ok());
    }

    #[test]
    fn embedding_and_pool_shapes() {
        let mut g = Graph::new("t", DType::Bf16);
        let table = g.constant(&[30000, 128]).unwrap();
        let e = g.embedding(table, 4, 64).unwrap();
        assert_eq!(g.node(e).shape.dims(), &[4, 64, 128]);
        assert_eq!(g.node_flops(g.node(e)), 0);

        let x = g.parameter(&[1, 28, 28, 32]).unwrap();
        let p = g.max_pool2d(x, 2).unwrap();
        assert_eq!(g.node(p).shape.dims(), &[1, 14, 14, 32]);
    }

    #[test]
    fn reshape_preserves_elements() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 64]).unwrap();
        assert!(g.reshape(x, &[256]).is_ok());
        assert!(matches!(
            g.reshape(x, &[4, 65]).unwrap_err(),
            ShapeError::ElementCountChanged { .. }
        ));
    }

    #[test]
    fn consumers_map() {
        let g = mlp();
        let uses = g.consumers();
        // x (id 0) is used by the first dot (id 2).
        assert_eq!(uses[0], vec![OpId(2)]);
        // relu output (id 3) used by second dot (id 5).
        assert_eq!(uses[3], vec![OpId(5)]);
        assert!(uses[5].is_empty());
    }

    #[test]
    fn fusible_classification() {
        let g = mlp();
        assert!(g.node(OpId(3)).op.is_fusible_consumer()); // relu
        assert!(!g.node(OpId(2)).op.is_fusible_consumer()); // dot
        assert!(g.node(OpId(2)).op.is_matrix_op());
    }

    #[test]
    fn intensity_estimate_is_finite_positive() {
        let g = mlp();
        let i = g.intensity_estimate();
        assert!(i > 0.0 && i.is_finite());
    }

    #[test]
    fn display_dumps_nodes() {
        let s = format!("{}", mlp());
        assert!(s.contains("dot"));
        assert!(s.contains("%0"));
        assert!(s.contains("params"));
    }

    #[test]
    fn builders_reject_dangling_operand_ids() {
        // An id minted by a *different* graph (or fabricated raw) used to
        // panic inside the builder; every builder now returns the typed
        // UnknownOperand error instead.
        let foreign = OpId::from_raw(99);
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 64]).unwrap();
        let img = g.parameter(&[1, 8, 8, 4]).unwrap();
        let dangling = |r: Result<OpId, ShapeError>| {
            assert!(matches!(r, Err(ShapeError::UnknownOperand { .. })), "{r:?}");
        };
        dangling(g.dot(foreign, x));
        dangling(g.dot(x, foreign));
        dangling(g.conv2d(foreign, img, 1));
        dangling(g.conv2d(img, foreign, 1));
        dangling(g.activate(foreign, Activation::Relu));
        dangling(g.binary(x, foreign, BinaryKind::Add));
        dangling(g.softmax(foreign));
        dangling(g.layer_norm(foreign));
        dangling(g.embedding(foreign, 2, 2));
        dangling(g.max_pool2d(foreign, 2));
        dangling(g.gate_reduce(foreign, 4));
        dangling(g.batch_matmul(foreign, x, 1, 4, 64, 1));
        dangling(g.reshape(foreign, &[256]));
        // The graph is untouched by the failed builder calls.
        assert_eq!(g.nodes().len(), 2);
        let msg = format!("{}", g.dot(foreign, x).unwrap_err());
        assert!(msg.contains("%99"), "{msg}");
    }

    #[test]
    fn get_is_total_where_node_panics() {
        let g = mlp();
        assert!(g.get(OpId::from_raw(0)).is_some());
        assert!(g.get(OpId::from_raw(1000)).is_none());
    }

    #[test]
    fn reinfer_matches_builder_shapes() {
        let g = mlp();
        for n in g.nodes() {
            assert_eq!(g.reinfer(n).unwrap(), n.shape, "{}", n.id);
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let g = mlp();
        let copy = g.clone();
        let (name, dtype, nodes, outputs) = g.into_parts();
        let back = Graph::from_parts(&name, dtype, nodes, outputs);
        assert_eq!(back, copy);
    }

    #[test]
    fn operands_come_inline_in_operand_order() {
        let ids = |op: HloOp| -> Vec<OpId> { op.operands().into_iter().collect() };
        assert!(HloOp::Parameter.operands().is_empty());
        assert_eq!(ids(HloOp::Constant), vec![]);
        let x = OpId(3);
        assert_eq!(&*HloOp::Softmax { input: x }.operands(), &[x]);
        assert_eq!(ids(HloOp::Reshape { input: x }), vec![x]);
        // Operand order, not id order: the later id comes first here.
        let (lhs, rhs) = (OpId(5), OpId(1));
        let dot = HloOp::Dot { lhs, rhs };
        assert_eq!(ids(dot.clone()), vec![lhs, rhs]);
        assert_eq!(&*dot.operands(), &[lhs, rhs]);
        assert_eq!(dot.operands().len(), 2);
        let bmm = HloOp::BatchMatmul {
            a: rhs,
            b: lhs,
            batch: 1,
            m: 1,
            k: 1,
            n: 1,
        };
        assert_eq!(ids(bmm), vec![rhs, lhs]);
        // A repeated operand is listed twice.
        let same = HloOp::Binary {
            a: x,
            b: x,
            kind: BinaryKind::Add,
        };
        assert_eq!(ids(same), vec![x, x]);
    }

    #[test]
    fn builders_reject_shapes_above_max_rank() {
        let too_deep = [1, 2, 2, 2, 2];
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 4]).unwrap();
        let rank5 = Err(ShapeError::RankTooHigh { rank: 5 });
        assert_eq!(g.parameter(&too_deep), rank5);
        assert_eq!(g.constant(&too_deep), rank5);
        assert_eq!(g.reshape(x, &[1, 1, 2, 2, 4]), rank5);
        assert_eq!(g.nodes().len(), 1);
        assert!(g.reshape(x, &[1, 2, 2, 4]).is_ok());
    }

    #[test]
    fn mark_output_deduplicates() {
        let mut g = mlp();
        let out = *g.outputs().first().unwrap();
        g.mark_output(out);
        assert_eq!(g.outputs().len(), 1);
    }
}
