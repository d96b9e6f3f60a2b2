//! Per-packet energy accounting (Section IV of the paper).
//!
//! The evaluation charges every packet transmission 2 J at the sender and
//! every reception 0.75 J at the receiver, and reports two separate totals:
//! energy consumed in *topology construction* and energy consumed in
//! *communication* (data forwarding plus topology maintenance) — Figures 5,
//! 9, 10 and 11.

use std::fmt;

/// Which ledger a message's energy is billed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyAccount {
    /// Initial overlay/topology construction (Figure 10): ID assignment,
    /// tree building, clustering, overlay path setup.
    Construction,
    /// Steady-state communication (Figures 5 and 9): data forwarding,
    /// recovery broadcasts, maintenance probes and path updates.
    Communication,
}

/// Per-packet energy prices, in Joules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Joules charged to the sender per transmitted packet (paper: 2).
    pub tx_joules: f64,
    /// Joules charged to each receiver per received packet (paper: 0.75).
    pub rx_joules: f64,
}

impl EnergyModel {
    /// The paper's constants: 2 J to transmit, 0.75 J to receive.
    pub const PAPER: EnergyModel = EnergyModel { tx_joules: 2.0, rx_joules: 0.75 };
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::PAPER
    }
}

/// Accumulated energy per account and radio mode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    /// Transmit energy billed to construction, J.
    pub construction_tx: f64,
    /// Receive energy billed to construction, J.
    pub construction_rx: f64,
    /// Transmit energy billed to communication, J.
    pub communication_tx: f64,
    /// Receive energy billed to communication, J.
    pub communication_rx: f64,
}

impl EnergyLedger {
    /// Records one transmission under `account`.
    pub fn charge_tx(&mut self, model: &EnergyModel, account: EnergyAccount) {
        match account {
            EnergyAccount::Construction => self.construction_tx += model.tx_joules,
            EnergyAccount::Communication => self.communication_tx += model.tx_joules,
        }
    }

    /// Records one reception under `account`.
    pub fn charge_rx(&mut self, model: &EnergyModel, account: EnergyAccount) {
        match account {
            EnergyAccount::Construction => self.construction_rx += model.rx_joules,
            EnergyAccount::Communication => self.communication_rx += model.rx_joules,
        }
    }

    /// Total Joules billed to construction.
    pub fn construction_total(&self) -> f64 {
        self.construction_tx + self.construction_rx
    }

    /// Total Joules billed to communication.
    pub fn communication_total(&self) -> f64 {
        self.communication_tx + self.communication_rx
    }

    /// Grand total over both accounts (Figure 11).
    pub fn total(&self) -> f64 {
        self.construction_total() + self.communication_total()
    }

    /// Adds another ledger into this one.
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.construction_tx += other.construction_tx;
        self.construction_rx += other.construction_rx;
        self.communication_tx += other.communication_tx;
        self.communication_rx += other.communication_rx;
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "construction {:.1} J, communication {:.1} J",
            self.construction_total(),
            self.communication_total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let m = EnergyModel::default();
        assert_eq!(m.tx_joules, 2.0);
        assert_eq!(m.rx_joules, 0.75);
    }

    #[test]
    fn ledger_accumulates_by_account() {
        let m = EnergyModel::PAPER;
        let mut ledger = EnergyLedger::default();
        ledger.charge_tx(&m, EnergyAccount::Construction);
        ledger.charge_rx(&m, EnergyAccount::Construction);
        ledger.charge_tx(&m, EnergyAccount::Communication);
        ledger.charge_tx(&m, EnergyAccount::Communication);
        ledger.charge_rx(&m, EnergyAccount::Communication);
        assert_eq!(ledger.construction_total(), 2.75);
        assert_eq!(ledger.communication_total(), 4.75);
        assert_eq!(ledger.total(), 7.5);
    }

    #[test]
    fn merge_sums_fields() {
        let m = EnergyModel::PAPER;
        let mut a = EnergyLedger::default();
        a.charge_tx(&m, EnergyAccount::Communication);
        let mut b = EnergyLedger::default();
        b.charge_rx(&m, EnergyAccount::Construction);
        a.merge(&b);
        assert_eq!(a.total(), 2.75);
    }
}
