//! Device placement of token blocks and computation blocks.

use dcp_blocks::{BatchLayout, CompBlockId, TokenBlockId};
use dcp_types::{DcpError, DcpResult};
use serde::{Deserialize, Serialize};

/// The device assignment of every block of a batch.
///
/// `token_to_dev[t]` is the device owning token block `t` (its Q, K, V and O
/// slices, and hence those tokens of the model input); `comp_to_dev[c]` is
/// the device executing computation block `c`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Number of devices the placement targets.
    pub num_devices: u32,
    /// Owner device of each token block.
    pub token_to_dev: Vec<u32>,
    /// Executing device of each computation block.
    pub comp_to_dev: Vec<u32>,
}

impl Placement {
    /// Validates shape and ranges against `layout`.
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidArgument`] on length mismatch or an
    /// out-of-range device.
    pub fn validate(&self, layout: &BatchLayout) -> DcpResult<()> {
        if self.token_to_dev.len() != layout.token_blocks.len() {
            return Err(DcpError::invalid_argument(format!(
                "placement has {} token entries, layout has {}",
                self.token_to_dev.len(),
                layout.token_blocks.len()
            )));
        }
        if self.comp_to_dev.len() != layout.comp_blocks.len() {
            return Err(DcpError::invalid_argument(format!(
                "placement has {} comp entries, layout has {}",
                self.comp_to_dev.len(),
                layout.comp_blocks.len()
            )));
        }
        if let Some(&d) = self
            .token_to_dev
            .iter()
            .chain(self.comp_to_dev.iter())
            .find(|&&d| d >= self.num_devices)
        {
            return Err(DcpError::invalid_argument(format!(
                "device {d} out of range ({} devices)",
                self.num_devices
            )));
        }
        Ok(())
    }

    /// Owner of token block `t`.
    #[inline]
    pub fn token_dev(&self, t: TokenBlockId) -> u32 {
        self.token_to_dev[t.0 as usize]
    }

    /// Executor of computation block `c`.
    #[inline]
    pub fn comp_dev(&self, c: CompBlockId) -> u32 {
        self.comp_to_dev[c.0 as usize]
    }

    /// A trivial placement putting everything on device 0 of `n` devices.
    pub fn all_on_zero(layout: &BatchLayout, n: u32) -> Self {
        Placement {
            num_devices: n,
            token_to_dev: vec![0; layout.token_blocks.len()],
            comp_to_dev: vec![0; layout.comp_blocks.len()],
        }
    }

    /// Per-device computation FLOPs under this placement.
    pub fn comp_loads(&self, layout: &BatchLayout) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_devices as usize];
        for (i, c) in layout.comp_blocks.iter().enumerate() {
            loads[self.comp_to_dev[i] as usize] += c.flops;
        }
        loads
    }

    /// Per-device token counts (memory proxy) under this placement.
    pub fn token_loads(&self, layout: &BatchLayout) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_devices as usize];
        for (i, t) in layout.token_blocks.iter().enumerate() {
            loads[self.token_to_dev[i] as usize] += t.len as u64;
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_blocks::BlockConfig;
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;

    fn layout() -> BatchLayout {
        BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: 512,
                head_blocks: 1,
            },
            &[(1024, MaskSpec::Causal)],
        )
        .unwrap()
    }

    #[test]
    fn validate_checks_shapes_and_ranges() {
        let l = layout();
        let p = Placement::all_on_zero(&l, 2);
        assert!(p.validate(&l).is_ok());

        let mut bad = p.clone();
        bad.token_to_dev.pop();
        assert!(bad.validate(&l).is_err());

        let mut bad = p.clone();
        bad.comp_to_dev[0] = 9;
        assert!(bad.validate(&l).is_err());
    }

    #[test]
    fn loads_accumulate() {
        let l = layout();
        // 2 token blocks, 3 comp blocks (causal 2x2 lower triangle).
        assert_eq!(l.comp_blocks.len(), 3);
        let p = Placement {
            num_devices: 2,
            token_to_dev: vec![0, 1],
            comp_to_dev: vec![0, 1, 1],
        };
        let cl = p.comp_loads(&l);
        assert_eq!(cl[0], l.comp_blocks[0].flops);
        assert_eq!(cl[1], l.comp_blocks[1].flops + l.comp_blocks[2].flops);
        let tl = p.token_loads(&l);
        assert_eq!(tl, vec![512, 512]);
    }
}
