//! Structured networks and their flattened computation graphs.

use gpupoly_interval::{round, Fp, Itv};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::{relu_forward, relu_forward_itv, Conv2d, Dense, NetworkError, Shape};

/// A single layer of a network.
#[derive(Clone, Debug, PartialEq)]
pub enum Layer<F> {
    /// Fully-connected affine layer.
    Dense(Dense<F>),
    /// 2-D convolution.
    Conv(Conv2d<F>),
    /// Element-wise ReLU.
    Relu,
}

impl<F: Fp> Layer<F> {
    /// Output shape given the input shape.
    ///
    /// # Errors
    ///
    /// [`NetworkError::SizeMismatch`] / [`NetworkError::BadGeometry`] when
    /// the layer cannot consume the given shape.
    pub fn out_shape(&self, in_shape: Shape) -> Result<Shape, NetworkError> {
        match self {
            Layer::Dense(d) => {
                if in_shape.len() != d.in_len {
                    return Err(NetworkError::SizeMismatch {
                        what: "dense input",
                        expected: d.in_len,
                        got: in_shape.len(),
                    });
                }
                Ok(Shape::flat(d.out_len))
            }
            Layer::Conv(c) => {
                if in_shape != c.in_shape {
                    return Err(NetworkError::BadGeometry(format!(
                        "conv expects input {}, got {}",
                        c.in_shape, in_shape
                    )));
                }
                Ok(c.out_shape)
            }
            Layer::Relu => Ok(in_shape),
        }
    }

    /// `true` for affine (dense/conv) layers.
    pub fn is_affine(&self) -> bool {
        matches!(self, Layer::Dense(_) | Layer::Conv(_))
    }
}

/// One block of a structured network: a plain layer, or a residual block of
/// two parallel branches whose outputs are added.
///
/// An empty branch is the identity (a skip connection). The paper assumes
/// residual width two (§3.1), i.e. no nested residual blocks — the type
/// enforces this: branches are flat layer lists.
#[derive(Clone, Debug, PartialEq)]
pub enum Block<F> {
    /// A single layer.
    Single(Layer<F>),
    /// A residual block: `out = a(x) + b(x)`.
    Residual {
        /// Main branch (may be empty = identity).
        a: Vec<Layer<F>>,
        /// Skip branch (may be empty = identity).
        b: Vec<Layer<F>>,
    },
}

/// A validated feed-forward network with optional residual blocks.
///
/// Construct through [`Network::new`] or
/// [`crate::builder::NetworkBuilder`]; both validate all shapes by building
/// the computation graph once.
///
/// # Example
///
/// ```
/// use gpupoly_nn::builder::NetworkBuilder;
///
/// let net = NetworkBuilder::new_flat(3)
///     .dense_flat(2, vec![1.0_f32, 0.0, 0.0, 0.0, 1.0, 0.0], vec![0.0, 0.0])
///     .relu()
///     .build()?;
/// assert_eq!(net.infer(&[1.0, -2.0, 5.0]), vec![1.0, 0.0]);
/// assert_eq!(net.neuron_count(), 2);
/// # Ok::<(), gpupoly_nn::NetworkError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Network<F> {
    input_shape: Shape,
    blocks: Vec<Block<F>>,
}

// Hand-written serialization over the serde shim's value model, following
// serde's default conventions (externally tagged enums) so the JSON format
// matches what the derive macros would have produced.

impl<F: Serialize> Serialize for Layer<F> {
    fn to_value(&self) -> Value {
        match self {
            Layer::Dense(d) => Value::obj([("Dense", d.to_value())]),
            Layer::Conv(c) => Value::obj([("Conv", c.to_value())]),
            Layer::Relu => Value::Str("Relu".to_string()),
        }
    }
}

impl<'de, F: Deserialize<'de>> Deserialize<'de> for Layer<F> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s == "Relu" => Ok(Layer::Relu),
            Value::Obj(fields) if fields.len() == 1 => match fields[0].0.as_str() {
                "Dense" => Ok(Layer::Dense(Dense::from_value(&fields[0].1)?)),
                "Conv" => Ok(Layer::Conv(Conv2d::from_value(&fields[0].1)?)),
                other => Err(DeError(format!("unknown Layer variant `{other}`"))),
            },
            _ => Err(DeError("expected a Layer variant".to_string())),
        }
    }
}

impl<F: Serialize> Serialize for Block<F> {
    fn to_value(&self) -> Value {
        match self {
            Block::Single(layer) => Value::obj([("Single", layer.to_value())]),
            Block::Residual { a, b } => Value::obj([(
                "Residual",
                Value::obj([("a", a.to_value()), ("b", b.to_value())]),
            )]),
        }
    }
}

impl<'de, F: Deserialize<'de>> Deserialize<'de> for Block<F> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Obj(fields) if fields.len() == 1 => match fields[0].0.as_str() {
                "Single" => Ok(Block::Single(Layer::from_value(&fields[0].1)?)),
                "Residual" => Ok(Block::Residual {
                    a: Vec::from_value(fields[0].1.field("a")?)?,
                    b: Vec::from_value(fields[0].1.field("b")?)?,
                }),
                other => Err(DeError(format!("unknown Block variant `{other}`"))),
            },
            _ => Err(DeError("expected a Block variant".to_string())),
        }
    }
}

impl<F: Serialize> Serialize for Network<F> {
    fn to_value(&self) -> Value {
        Value::obj([
            ("input_shape", self.input_shape.to_value()),
            ("blocks", self.blocks.to_value()),
        ])
    }
}

impl<'de, F: Deserialize<'de>> Deserialize<'de> for Network<F> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Network {
            input_shape: Shape::from_value(v.field("input_shape")?)?,
            blocks: Vec::from_value(v.field("blocks")?)?,
        })
    }
}

impl<F: Fp + Serialize + for<'de> Deserialize<'de>> Network<F> {
    /// Serializes the network to JSON.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Io`] when serialization fails.
    pub fn to_json(&self) -> Result<String, NetworkError> {
        serde_json::to_string(self).map_err(|e| NetworkError::Io(e.to_string()))
    }

    /// Deserializes and validates a network from JSON.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Io`] on malformed JSON, or any validation error from
    /// [`Network::new`].
    pub fn from_json(s: &str) -> Result<Self, NetworkError> {
        let raw: Network<F> =
            serde_json::from_str(s).map_err(|e| NetworkError::Io(e.to_string()))?;
        Network::new(raw.input_shape, raw.blocks)
    }
}

impl<F: Fp> Network<F> {
    /// Creates a network after validating every layer shape.
    ///
    /// # Errors
    ///
    /// Any shape or geometry error discovered while threading the input
    /// shape through the blocks, or [`NetworkError::Empty`] for zero blocks.
    pub fn new(input_shape: Shape, blocks: Vec<Block<F>>) -> Result<Self, NetworkError> {
        if blocks.is_empty() {
            return Err(NetworkError::Empty);
        }
        let net = Self {
            input_shape,
            blocks,
        };
        net.build_graph()?; // validation
        Ok(net)
    }

    /// The input shape.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// The blocks of the network.
    pub fn blocks(&self) -> &[Block<F>] {
        &self.blocks
    }

    /// Mutable access to the blocks, for in-place weight updates (training).
    ///
    /// Mutating weight *values* is always safe; changing layer shapes or the
    /// block structure may invalidate the network — call
    /// [`Network::new`] again (or re-validate through `graph()`) if you do.
    pub fn blocks_mut(&mut self) -> &mut [Block<F>] {
        &mut self.blocks
    }

    /// The flattened computation graph (validated at construction).
    pub fn graph(&self) -> Graph<'_, F> {
        self.build_graph()
            .expect("network was validated at construction")
    }

    fn build_graph(&self) -> Result<Graph<'_, F>, NetworkError> {
        let mut nodes = vec![Node {
            op: Op::Input,
            parents: Vec::new(),
            shape: self.input_shape,
        }];
        let mut cur = 0usize;
        fn chain<'a, F: Fp>(
            nodes: &mut Vec<Node<'a, F>>,
            layers: &'a [Layer<F>],
            from: NodeId,
        ) -> Result<NodeId, NetworkError> {
            let mut at = from;
            for layer in layers {
                let shape = layer.out_shape(nodes[at].shape)?;
                let op = match layer {
                    Layer::Dense(d) => Op::Dense(d),
                    Layer::Conv(c) => Op::Conv(c),
                    Layer::Relu => Op::Relu,
                };
                nodes.push(Node {
                    op,
                    parents: vec![at],
                    shape,
                });
                at = nodes.len() - 1;
            }
            Ok(at)
        }
        for block in &self.blocks {
            match block {
                Block::Single(layer) => {
                    cur = chain(&mut nodes, std::slice::from_ref(layer), cur)?;
                }
                Block::Residual { a, b } => {
                    let head = cur;
                    let ta = chain(&mut nodes, a, head)?;
                    let tb = chain(&mut nodes, b, head)?;
                    let (sa, sb) = (nodes[ta].shape, nodes[tb].shape);
                    if sa.len() != sb.len() {
                        return Err(NetworkError::ResidualShapeMismatch(format!(
                            "branch a yields {sa}, branch b yields {sb}"
                        )));
                    }
                    nodes.push(Node {
                        op: Op::Add { head },
                        parents: vec![ta, tb],
                        shape: sa,
                    });
                    cur = nodes.len() - 1;
                }
            }
        }
        Ok(Graph { nodes })
    }

    /// Number of neurons, counted as the outputs of affine layers (the
    /// convention of the paper's Table 1: the 6×500 MNIST net has
    /// 6·500 + 10 = 3010 neurons).
    pub fn neuron_count(&self) -> usize {
        self.graph()
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Dense(_) | Op::Conv(_)))
            .map(|n| n.shape.len())
            .sum()
    }

    /// Network depth: the number of affine layers on the longest
    /// input→output path (the paper's "#Layers" convention — parallel skip
    /// projections inside residual blocks do not add depth).
    pub fn layer_count(&self) -> usize {
        let g = self.graph();
        let mut depth = vec![0usize; g.nodes.len()];
        for (i, node) in g.nodes.iter().enumerate() {
            let parent_depth = node.parents.iter().map(|&p| depth[p]).max().unwrap_or(0);
            let own = usize::from(matches!(node.op, Op::Dense(_) | Op::Conv(_)));
            depth[i] = parent_depth + own;
        }
        depth[g.output()]
    }

    /// Total number of stored parameters (weights and biases) — times
    /// `size_of::<F>()`, the device bytes a fully packed engine will pin,
    /// which is what a serving layer budgets before loading a model.
    pub fn param_count(&self) -> usize {
        fn layer_params<F>(layer: &Layer<F>) -> usize {
            match layer {
                Layer::Dense(d) => d.weight.len() + d.bias.len(),
                Layer::Conv(c) => c.weight.len() + c.bias.len(),
                Layer::Relu => 0,
            }
        }
        self.blocks
            .iter()
            .map(|b| match b {
                Block::Single(layer) => layer_params(layer),
                Block::Residual { a, b } => {
                    a.iter().map(layer_params).sum::<usize>()
                        + b.iter().map(layer_params).sum::<usize>()
                }
            })
            .sum()
    }

    /// Total number of affine layers, including parallel skip projections.
    pub fn affine_count(&self) -> usize {
        self.graph()
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Dense(_) | Op::Conv(_)))
            .count()
    }

    /// Length of the output vector.
    pub fn output_len(&self) -> usize {
        self.graph().nodes.last().expect("non-empty").shape.len()
    }

    /// Round-to-nearest inference; returns the output activations.
    ///
    /// # Panics
    ///
    /// Panics when `input` does not match the input shape.
    pub fn infer(&self, input: &[F]) -> Vec<F> {
        let g = self.graph();
        g.eval(input).pop().expect("non-empty graph")
    }

    /// The predicted label: index of the maximal output.
    ///
    /// # Panics
    ///
    /// Panics when `input` does not match the input shape.
    pub fn classify(&self, input: &[F]) -> usize {
        let out = self.infer(input);
        let mut best = 0;
        for (i, &v) in out.iter().enumerate() {
            if v > out[best] {
                best = i;
            }
        }
        best
    }

    /// Sound interval inference (interval bound propagation); returns the
    /// output bounds.
    ///
    /// # Panics
    ///
    /// Panics when `input` does not match the input shape.
    pub fn infer_itv(&self, input: &[Itv<F>]) -> Vec<Itv<F>> {
        let g = self.graph();
        g.eval_itv(input).pop().expect("non-empty graph")
    }

    /// The same network with every parameter widened to `f64`.
    ///
    /// For an `f32` network the widening is **lossless** — every `f32`
    /// value is exactly representable in `f64` — so the widened network
    /// computes over the *identical* real-valued function; only the
    /// arithmetic precision of downstream analyses changes. This is the
    /// full-precision companion a precision-tiered verifier escalates to.
    /// Shapes are untouched, so no revalidation is needed.
    pub fn widen(&self) -> Network<f64> {
        fn widen_layer<F: Fp>(layer: &Layer<F>) -> Layer<f64> {
            match layer {
                Layer::Dense(d) => Layer::Dense(d.widen()),
                Layer::Conv(c) => Layer::Conv(c.widen()),
                Layer::Relu => Layer::Relu,
            }
        }
        let blocks = self
            .blocks
            .iter()
            .map(|block| match block {
                Block::Single(layer) => Block::Single(widen_layer(layer)),
                Block::Residual { a, b } => Block::Residual {
                    a: a.iter().map(widen_layer).collect(),
                    b: b.iter().map(widen_layer).collect(),
                },
            })
            .collect();
        Network {
            input_shape: self.input_shape,
            blocks,
        }
    }
}

/// Identifier of a node in a [`Graph`] (its index; node 0 is the input).
pub type NodeId = usize;

/// The operation a graph node performs.
#[derive(Clone, Copy, Debug)]
pub enum Op<'a, F> {
    /// The network input.
    Input,
    /// Fully-connected affine transform.
    Dense(&'a Dense<F>),
    /// 2-D convolution.
    Conv(&'a Conv2d<F>),
    /// Element-wise ReLU.
    Relu,
    /// Element-wise addition of the two parents (exit of a residual block).
    Add {
        /// The node where the two branches forked — the "head" of the
        /// residual block, at which backsubstituted branch expressions merge.
        head: NodeId,
    },
}

/// One node of the flattened computation graph.
#[derive(Clone, Debug)]
pub struct Node<'a, F> {
    /// The operation.
    pub op: Op<'a, F>,
    /// Parent nodes (`[]` for input, `[x]` for layers, `[a, b]` for Add).
    pub parents: Vec<NodeId>,
    /// Output shape of this node.
    pub shape: Shape,
}

/// A network flattened into a topologically ordered node list — the "network
/// DAG" of the paper's §3.1, specialized to residual width two.
#[derive(Clone, Debug)]
pub struct Graph<'a, F> {
    /// Topologically ordered nodes; node 0 is the input, the last node is
    /// the output.
    pub nodes: Vec<Node<'a, F>>,
}

impl<F: Fp> Graph<'_, F> {
    /// The output node's id.
    pub fn output(&self) -> NodeId {
        self.nodes.len() - 1
    }

    /// Evaluates every node round-to-nearest; returns activations per node.
    ///
    /// # Panics
    ///
    /// Panics when `input` has the wrong length.
    pub fn eval(&self, input: &[F]) -> Vec<Vec<F>> {
        assert_eq!(
            input.len(),
            self.nodes[0].shape.len(),
            "input length mismatch"
        );
        let mut acts: Vec<Vec<F>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let out = match &node.op {
                Op::Input => input.to_vec(),
                Op::Dense(d) => {
                    let x = &acts[node.parents[0]];
                    let mut y = vec![F::ZERO; d.out_len];
                    d.forward(x, &mut y);
                    y
                }
                Op::Conv(c) => {
                    let x = &acts[node.parents[0]];
                    let mut y = vec![F::ZERO; c.out_shape.len()];
                    c.forward(x, &mut y);
                    y
                }
                Op::Relu => {
                    let x = &acts[node.parents[0]];
                    let mut y = vec![F::ZERO; x.len()];
                    relu_forward(x, &mut y);
                    y
                }
                Op::Add { .. } => {
                    let a = &acts[node.parents[0]];
                    let b = &acts[node.parents[1]];
                    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
                }
            };
            acts.push(out);
        }
        acts
    }

    /// Evaluates every node with sound interval arithmetic; returns bounds
    /// per node. This is the "forward interval analysis" GPUPoly runs as a
    /// preliminary step for early termination (§4.2): [`Graph::eval_node_itv`]
    /// node after node.
    ///
    /// # Panics
    ///
    /// Panics when `input` has the wrong length.
    pub fn eval_itv(&self, input: &[Itv<F>]) -> Vec<Vec<Itv<F>>> {
        assert_eq!(
            input.len(),
            self.nodes[0].shape.len(),
            "input length mismatch"
        );
        let mut acts: Vec<Vec<Itv<F>>> = Vec::with_capacity(self.nodes.len());
        acts.push(input.to_vec());
        for id in 1..self.nodes.len() {
            let (out, _round_off) = self.eval_node_itv(id, &acts);
            acts.push(out);
        }
        acts
    }

    /// The sound interval forward of node `id` from its parents' bounds
    /// (`bounds` holds every node before `id`; only the parents' are read),
    /// and the node's inference round-off over those bounds: for a dense or
    /// convolution node what [`Dense::forward_itv_round_off`] gives, for a
    /// residual add half an ulp of the node's fresh bounds (one rounded
    /// addition), empty for a ReLU, which is exact.
    ///
    /// # Panics
    ///
    /// Panics for the input node (its bounds are the input box) and when
    /// `bounds` misses a parent of `id`.
    pub fn eval_node_itv(&self, id: NodeId, bounds: &[Vec<Itv<F>>]) -> (Vec<Itv<F>>, Vec<F>) {
        let node = &self.nodes[id];
        let len = node.shape.len();
        let mut y = vec![Itv::zero(); len];
        let mut err = match node.op {
            Op::Relu => Vec::new(),
            _ => vec![F::ZERO; len],
        };
        match &node.op {
            Op::Input => panic!("the input node's bounds are the input box"),
            Op::Dense(d) => d.forward_itv_round_off(&bounds[node.parents[0]], &mut y, &mut err),
            Op::Conv(c) => c.forward_itv_round_off(&bounds[node.parents[0]], &mut y, &mut err),
            Op::Relu => relu_forward_itv(&bounds[node.parents[0]], &mut y),
            Op::Add { .. } => {
                let (a, b) = (&bounds[node.parents[0]], &bounds[node.parents[1]]);
                let u = F::EPSILON * F::HALF;
                for (((y, e), &x), &z) in y.iter_mut().zip(&mut err).zip(a).zip(b) {
                    *y = x.add(z);
                    *e = round::mul_up(u, y.mag());
                }
            }
        }
        (y, err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn tiny() -> Network<f32> {
        NetworkBuilder::new_flat(2)
            .dense_flat(2, vec![1.0, -1.0, 1.0, 1.0], vec![0.0, 0.0])
            .relu()
            .dense_flat(2, vec![1.0, 1.0, 1.0, -1.0], vec![0.5, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn empty_network_rejected() {
        assert_eq!(
            Network::<f32>::new(Shape::flat(2), vec![]).unwrap_err(),
            NetworkError::Empty
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let bad = Network::new(
            Shape::flat(3),
            vec![Block::Single(Layer::Dense(
                Dense::<f32>::new(2, 2, vec![0.0; 4], vec![0.0; 2]).unwrap(),
            ))],
        );
        assert!(matches!(bad, Err(NetworkError::SizeMismatch { .. })));
    }

    #[test]
    fn residual_branch_mismatch_rejected() {
        let bad = Network::new(
            Shape::flat(2),
            vec![Block::Residual {
                a: vec![Layer::Dense(
                    Dense::<f32>::new(3, 2, vec![0.0; 6], vec![0.0; 3]).unwrap(),
                )],
                b: vec![],
            }],
        );
        assert!(matches!(bad, Err(NetworkError::ResidualShapeMismatch(_))));
    }

    #[test]
    fn infer_computes_relu_network() {
        let net = tiny();
        // x = (0.4, 0.6): layer1 = (-0.2, 1.0) -> relu (0, 1.0)
        // layer2 = (0 + 1 + 0.5, 0 - 1) = (1.5, -1.0)
        let out = net.infer(&[0.4, 0.6]);
        assert!((out[0] - 1.5).abs() < 1e-6);
        assert!((out[1] + 1.0).abs() < 1e-6);
        assert_eq!(net.classify(&[0.4, 0.6]), 0);
    }

    #[test]
    fn counts_follow_affine_outputs() {
        let net = tiny();
        assert_eq!(net.neuron_count(), 4);
        assert_eq!(net.layer_count(), 2);
        assert_eq!(net.output_len(), 2);
    }

    #[test]
    fn graph_structure_of_residual() {
        let id = |n: usize| -> Vec<f32> {
            // identity n x n
            let mut w = vec![0.0; n * n];
            for i in 0..n {
                w[i * n + i] = 1.0;
            }
            w
        };
        let net = NetworkBuilder::new_flat(2)
            .residual(|a| a.dense_flat(2, id(2), vec![0.0; 2]).relu(), |b| b)
            .build()
            .unwrap();
        let g = net.graph();
        // input, dense, relu, add
        assert_eq!(g.nodes.len(), 4);
        match g.nodes[3].op {
            Op::Add { head } => assert_eq!(head, 0),
            _ => panic!("expected Add"),
        }
        assert_eq!(g.nodes[3].parents, vec![2, 0]);
        // residual identity: out = relu(x) + x
        let out = net.infer(&[1.0, -2.0]);
        assert_eq!(out, vec![2.0, -2.0]);
    }

    #[test]
    fn interval_eval_contains_point_eval() {
        let net = tiny();
        let x = [0.3_f32, 0.9];
        let point = net.infer(&x);
        let eps = 0.05;
        let xi: Vec<Itv<f32>> = x.iter().map(|&v| Itv::new(v - eps, v + eps)).collect();
        let bounds = net.infer_itv(&xi);
        for (b, p) in bounds.iter().zip(&point) {
            assert!(b.contains(*p), "{b} misses {p}");
        }
        // And perturbed samples stay inside.
        let shifted = net.infer(&[0.3 + eps, 0.9 - eps]);
        for (b, p) in bounds.iter().zip(&shifted) {
            assert!(b.contains(*p));
        }
    }

    #[test]
    fn widen_is_lossless_and_structure_preserving() {
        let net = tiny();
        let wide = net.widen();
        assert_eq!(wide.layer_count(), net.layer_count());
        assert_eq!(wide.neuron_count(), net.neuron_count());
        assert_eq!(wide.param_count(), net.param_count());
        // Every widened parameter is the exact f64 image of its f32 source.
        let (Block::Single(Layer::Dense(d32)), Block::Single(Layer::Dense(d64))) =
            (&net.blocks()[0], &wide.blocks()[0])
        else {
            panic!("expected dense first blocks");
        };
        for (w32, w64) in d32.weight.iter().zip(&d64.weight) {
            assert_eq!(*w32 as f64, *w64);
        }
        // Inference on exactly-representable inputs agrees exactly.
        let out32 = net.infer(&[0.25, 0.5]);
        let out64 = wide.infer(&[0.25, 0.5]);
        for (a, b) in out32.iter().zip(&out64) {
            assert_eq!(*a as f64, *b);
        }
        // Residual structure survives widening.
        let res = NetworkBuilder::new_flat(2)
            .residual(
                |a| {
                    a.dense_flat(2, vec![1.0, 0.0, 0.0, 1.0], vec![0.0; 2])
                        .relu()
                },
                |b| b,
            )
            .build()
            .unwrap();
        let wide_res = res.widen();
        assert!(matches!(wide_res.blocks()[0], Block::Residual { .. }));
        assert_eq!(wide_res.infer(&[1.0, -2.0]), vec![2.0, -2.0]);
    }

    #[test]
    fn json_round_trip_revalidates() {
        let net = tiny();
        let s = net.to_json().unwrap();
        let back = Network::<f32>::from_json(&s).unwrap();
        assert_eq!(net, back);
        assert!(Network::<f32>::from_json("{ not json").is_err());
    }

    #[test]
    fn eval_node_itv_is_a_node_of_eval_itv_with_its_round_off() {
        // A dense layer, its ReLU, and a residual add over the two.
        let net = NetworkBuilder::new_flat(2)
            .dense_flat(2, vec![0.3, -0.7, 1.1, 0.2], vec![0.1, -0.05])
            .residual(|a| a.relu(), |b| b)
            .build()
            .unwrap();
        let g = net.graph();
        let input = [Itv::new(-0.5_f32, 0.5), Itv::new(0.25, 0.75)];
        let all = g.eval_itv(&input);
        for id in 1..g.nodes.len() {
            let (bounds, err) = g.eval_node_itv(id, &all[..id]);
            assert_eq!(bounds, all[id], "node {id}");
            match g.nodes[id].op {
                Op::Dense(d) => {
                    let mut want = vec![0.0; 2];
                    d.forward_itv_round_off(&all[0], &mut [Itv::zero(); 2], &mut want);
                    assert_eq!(err, want);
                }
                Op::Relu => assert!(err.is_empty()),
                Op::Add { .. } => {
                    let half_ulp = |b: &Itv<f32>| round::mul_up(f32::EPSILON * 0.5, b.mag());
                    assert_eq!(err, bounds.iter().map(half_ulp).collect::<Vec<_>>());
                }
                Op::Input | Op::Conv(_) => unreachable!(),
            }
        }
    }
}
