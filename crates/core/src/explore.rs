//! Augmented exploration (Definition 4): a guided, step-by-step expansion
//! of a local answer, "where the user can freely find her way through the
//! polystore, by just clicking on the links as soon as they are made
//! available".

use std::time::Instant;

use quepa_pdm::{DataObject, GlobalKey, RelationKind};
use quepa_polystore::StoreKind;

use crate::augmenter::AugmentedObject;
use crate::durability::IndexOp;
use crate::error::{QuepaError, Result};
use crate::system::Quepa;

/// An interactive exploration over the answer of a local query.
///
/// The session tracks the full path `v₀ … v_k` of selected objects; on
/// [`finish`](ExplorationSession::finish) the path lands in the `D_P`
/// repository, possibly promoting a shortcut p-relation (§III-D(a)).
pub struct ExplorationSession<'q> {
    quepa: &'q Quepa,
    target_kind: StoreKind,
    original: Vec<DataObject>,
    /// The current frontier: what the user can click next.
    frontier: Vec<AugmentedObject>,
    /// The selected objects so far (the full path).
    path: Vec<GlobalKey>,
    steps: usize,
}

impl<'q> ExplorationSession<'q> {
    pub(crate) fn new(quepa: &'q Quepa, original: Vec<DataObject>, target_kind: StoreKind) -> Self {
        ExplorationSession {
            quepa,
            target_kind,
            original,
            frontier: Vec::new(),
            path: Vec::new(),
            steps: 0,
        }
    }

    /// The local answer of the starting query.
    pub fn results(&self) -> &[DataObject] {
        &self.original
    }

    /// What the user can click right now (the links of the last expansion),
    /// ordered by probability.
    pub fn frontier(&self) -> &[AugmentedObject] {
        &self.frontier
    }

    /// The path of selected objects so far.
    pub fn path(&self) -> &[GlobalKey] {
        &self.path
    }

    /// Number of expansion steps taken.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Step 1: selects the `index`-th object of the *original answer* and
    /// expands it (`O₀ = α⁰([o₀])`).
    pub fn select(&mut self, index: usize) -> Result<&[AugmentedObject]> {
        let object = self
            .original
            .get(index)
            .ok_or(QuepaError::BadSelection { index, available: self.original.len() })?
            .clone();
        self.expand(object, 0)
    }

    /// Steps 2…k: selects the `index`-th object of the current *frontier*
    /// and expands it (`Oᵢ = α¹([oᵢ])`), hiding objects already visited on
    /// this path.
    pub fn step(&mut self, index: usize) -> Result<&[AugmentedObject]> {
        let object = self
            .frontier
            .get(index)
            .ok_or(QuepaError::BadSelection { index, available: self.frontier.len() })?
            .object
            .clone();
        self.expand(object, 1)
    }

    fn expand(&mut self, object: DataObject, level: usize) -> Result<&[AugmentedObject]> {
        let start = Instant::now();
        let key = object.key().clone();
        let answer = self.quepa.augment_objects(
            std::slice::from_ref(&object),
            level,
            self.target_kind,
            start,
        )?;
        self.path.push(key);
        self.frontier =
            answer.augmented.into_iter().filter(|a| !self.path.contains(a.object.key())).collect();
        self.steps += 1;
        Ok(&self.frontier)
    }

    /// Ends the exploration, recording the traversed path in `D_P`. A
    /// promotion it triggers is committed like any other index mutation
    /// ([`Quepa::apply_mutations`]: write-ahead-logged on a durable
    /// instance), so it survives a crash. Returns whether a shortcut
    /// p-relation was added.
    pub fn finish(self) -> Result<bool> {
        if self.path.len() < 3 {
            return Ok(false);
        }
        let quepa = self.quepa;
        // Deciding only reads: the published view is enough. §III-D(a):
        // the shortcut is added "if not yet present".
        let view = quepa.index();
        let Some(promo) = quepa
            .paths()
            .record(&self.path, &view)
            .filter(|promo| view.edge(&promo.from, &promo.to, RelationKind::Matching).is_none())
        else {
            return Ok(false);
        };
        quepa.apply_mutations(&[IndexOp::InsertPromoted {
            a: promo.from,
            b: promo.to,
            p: promo.probability,
        }])?;
        Ok(true)
    }
}
