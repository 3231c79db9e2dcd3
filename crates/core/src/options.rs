//! Pipeline options.

use pathalias_mapper::CostModel;
use pathalias_printer::{PrintOptions, Sort};

/// Options controlling the whole pipeline, mirroring the original
/// command line where one exists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    /// The local host: the mapping source and the `0 ... %s` line of
    /// the output (`-l`). When unset, the first host declared in the
    /// input is used.
    pub local: Option<String>,
    /// Fold host names to lower case (`-i`).
    pub ignore_case: bool,
    /// Show costs in the output (`-c`).
    pub with_costs: bool,
    /// Output ordering.
    pub sort: Sort,
    /// Routing-heuristic configuration.
    pub cost_model: CostModel,
    /// Disable the back-link pass for unreachable hosts.
    pub no_backlinks: bool,
    /// Hosts whose relaxations should be traced (`-t`).
    pub trace: Vec<String>,
    /// Include hidden entries (networks, subdomains, private hosts) in
    /// the rendered output, `#`-marked.
    pub include_hidden: bool,
}

impl Options {
    /// The printer's share of the options: how the route table is
    /// rendered.
    pub fn print_options(&self) -> PrintOptions {
        PrintOptions {
            with_costs: self.with_costs,
            sort: self.sort,
            include_hidden: self.include_hidden,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_behaviour() {
        let o = Options::default();
        assert!(o.local.is_none());
        assert!(!o.ignore_case);
        assert!(!o.with_costs);
        assert_eq!(o.cost_model, CostModel::paper());
        assert!(!o.no_backlinks);
    }
}
