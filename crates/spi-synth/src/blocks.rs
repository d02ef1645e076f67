//! Lowering variants straight from per-cluster task blocks.
//!
//! In the paper's representation a variant *is* one cluster choice per interface, so
//! the task set of a flattened variant is the common tasks plus one block of tasks
//! per chosen cluster. [`BlockLowering`] precomputes those blocks once per
//! [`Flattener`] — each process slot's name, utilization and area, with the caller's
//! parameter estimate consulted once per slot — and assembles each variant's
//! [`CompiledProblem`] from the chosen blocks into reused buffers: no `String`, no
//! hash and no sort per variant.
//!
//! Task ids of a [`CompiledProblem`] follow the name order of its tasks. Every slot
//! gets its rank in the name order of *all* slots once; restricting that order to
//! the slots of one variant is exactly the variant's name order, so a variant's ids
//! fall out of a scan over the chosen ranks. The result is bit-identical to
//! [`compiled_from_flat_graph`](crate::compiled_from_flat_graph) on the flattened
//! graph, a property the exploration service's differential tests pin.

use spi_model::SpiGraph;
use spi_variants::Flattener;

use crate::bridge::{TaskParams, DEFAULT_CAPACITY_PERMILLE};
use crate::compiled::{CompiledProblem, TaskId};
use crate::error::SynthError;
use crate::problem::TaskSpec;
use crate::Result;

/// Name of the one application every flattened variant poses (as in
/// [`compiled_from_flat_graph`](crate::compiled_from_flat_graph)).
const APPLICATION: &str = "flattened";

/// Per-variant lowering from precompiled task blocks; see the module docs.
///
/// Slots are numbered block by block: the common part's non-virtual processes
/// first, then every cluster of every axis, each block in graph order — the order
/// in which a flattened graph lists them.
#[derive(Debug, Clone)]
pub struct BlockLowering {
    utilization: Vec<u64>,
    hw_area: Vec<u64>,
    /// Each slot's position in the name order of all slots.
    rank: Vec<u32>,
    /// Inverse of `rank`.
    slot_at_rank: Vec<u32>,
    /// Block `b` holds slots `block_start[b]..block_start[b + 1]`; block 0 is the
    /// common part.
    block_start: Vec<u32>,
    /// Total hardware area of each block.
    block_area: Vec<u64>,
    /// Block of cluster 0 of each axis; cluster `d` of axis `a` is block
    /// `axis_block[a] + d`.
    axis_block: Vec<u32>,
    /// Scratch: the ranks of the current variant's slots, as a bitset.
    present: Vec<u64>,
    /// Scratch: the task id of each present rank.
    task_of_rank: Vec<u32>,
    /// The reused problem buffer, its name table the slot names.
    problem: CompiledProblem,
}

impl BlockLowering {
    /// Builds the slot table of `flattener`'s variants. `params` is consulted once
    /// per slot with the flattened process name, exactly as
    /// [`compiled_from_flat_graph`](crate::compiled_from_flat_graph) would per variant.
    ///
    /// Slot names are distinct: [`Flattener::new`] rejects a cluster node name that
    /// collides with the common part or with another interface, and clusters of one
    /// interface carry distinct `"{interface}/{cluster}/"` prefixes.
    pub fn new(
        flattener: &Flattener,
        processor_cost: u64,
        mut params: impl FnMut(&str) -> TaskParams,
    ) -> BlockLowering {
        let mut names: Vec<String> = Vec::new();
        let mut utilization = Vec::new();
        let mut hw_area = Vec::new();
        let mut block_start = vec![0u32];
        let mut push_block = |graph: &SpiGraph, block_start: &mut Vec<u32>| {
            for process in graph.processes().filter(|p| !p.is_virtual()) {
                let p = params(process.name());
                let spec = TaskSpec::new(
                    process.name(),
                    p.sw_time,
                    p.period,
                    p.hw_area,
                    p.synthesis_effort,
                );
                utilization.push(spec.utilization_permille());
                hw_area.push(spec.hw_area);
                names.push(spec.name);
            }
            block_start.push(names.len() as u32);
        };
        push_block(flattener.skeleton(), &mut block_start);
        let mut axis_block = Vec::with_capacity(flattener.space().axes().len());
        for (axis, (_, clusters)) in flattener.space().axes().iter().enumerate() {
            axis_block.push(block_start.len() as u32 - 1);
            for position in 0..clusters.len() {
                let cluster = flattener
                    .cluster_graph(axis, position)
                    .expect("the flattener plans every cluster of its space");
                push_block(cluster, &mut block_start);
            }
        }

        let slots = names.len();
        let mut slot_at_rank: Vec<u32> = (0..slots as u32).collect();
        slot_at_rank.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
        debug_assert!(
            slot_at_rank
                .windows(2)
                .all(|pair| names[pair[0] as usize] < names[pair[1] as usize]),
            "slot names are distinct"
        );
        let mut rank = vec![0u32; slots];
        for (position, &slot) in slot_at_rank.iter().enumerate() {
            rank[slot as usize] = position as u32;
        }
        let block_area = block_start
            .windows(2)
            .map(|range| hw_area[range[0] as usize..range[1] as usize].iter().sum())
            .collect();

        BlockLowering {
            utilization,
            hw_area,
            rank,
            slot_at_rank,
            block_start,
            block_area,
            axis_block,
            present: vec![0; slots.div_ceil(64)],
            task_of_rank: vec![0; slots],
            problem: CompiledProblem {
                name_table: names.into(),
                name_rows: Vec::new(),
                utilization: Vec::new(),
                hw_area: Vec::new(),
                app_names: vec![APPLICATION.to_string()],
                app_tasks: vec![Vec::new()],
                apps_of_task: Vec::new(),
                membership_mask: vec![0],
                mask_ready: false,
                total_utilization: 0,
                processor_cost,
                capacity_permille: DEFAULT_CAPACITY_PERMILLE,
            },
        }
    }

    /// The blocks of the variant whose cluster positions are `digits` (one per
    /// axis, in axis order), in the order a flattened graph lists them.
    fn blocks<'d>(axis_block: &'d [u32], digits: &'d [u32]) -> impl Iterator<Item = usize> + 'd {
        debug_assert_eq!(axis_block.len(), digits.len());
        std::iter::once(0).chain(
            axis_block
                .iter()
                .zip(digits)
                .map(|(&first, &digit)| (first + digit) as usize),
        )
    }

    /// Total hardware area of the variant's tasks: the all-hardware cost, which
    /// bounds the optimum from above — and, with the processor cost, from below.
    pub fn area_sum(&self, digits: &[u32]) -> u64 {
        Self::blocks(&self.axis_block, digits)
            .map(|block| self.block_area[block])
            .sum()
    }

    /// Lowers the variant whose cluster positions are `digits` (one per axis, in axis
    /// order, as [`DeltaFlattener::digits`](spi_variants::DeltaFlattener::digits)
    /// reports them) into the reused problem buffer.
    ///
    /// # Errors
    ///
    /// As [`compiled_from_flat_graph`](crate::compiled_from_flat_graph):
    /// [`SynthError::Validation`] when the variant has no non-virtual process.
    pub fn lower(&mut self, digits: &[u32]) -> Result<&CompiledProblem> {
        let BlockLowering {
            utilization,
            hw_area,
            rank,
            slot_at_rank,
            block_start,
            axis_block,
            present,
            task_of_rank,
            problem,
            ..
        } = self;
        let slots_of = |block: usize| block_start[block] as usize..block_start[block + 1] as usize;

        present.fill(0);
        for block in Self::blocks(axis_block, digits) {
            for slot in slots_of(block) {
                let at = rank[slot] as usize;
                present[at / 64] |= 1u64 << (at % 64);
            }
        }
        problem.name_rows.clear();
        problem.utilization.clear();
        problem.hw_area.clear();
        for (word_index, &word) in present.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let at = word_index * 64 + bits.trailing_zeros() as usize;
                let slot = slot_at_rank[at];
                task_of_rank[at] = problem.name_rows.len() as u32;
                problem.name_rows.push(slot);
                problem.utilization.push(utilization[slot as usize]);
                problem.hw_area.push(hw_area[slot as usize]);
                bits &= bits - 1;
            }
        }

        let n = problem.name_rows.len();
        if n == 0 {
            return Err(SynthError::Validation(format!(
                "application `{APPLICATION}` has no tasks"
            )));
        }
        // The application lists its tasks in graph order, as the flattened graph does.
        let members = &mut problem.app_tasks[0];
        members.clear();
        for block in Self::blocks(axis_block, digits) {
            members.extend(slots_of(block).map(|slot| TaskId(task_of_rank[rank[slot] as usize])));
        }
        problem.apps_of_task.resize_with(n, || vec![0]);
        problem.mask_ready = n < 64;
        problem.membership_mask[0] = if n < 64 { (1u64 << n) - 1 } else { 0 };
        problem.total_utilization = problem.utilization.iter().sum();
        Ok(problem)
    }

    /// The problem buffer as the most recent [`lower`](Self::lower) left it.
    pub fn problem(&self) -> &CompiledProblem {
        &self.problem
    }
}
