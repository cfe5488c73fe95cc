//! The scenario registry: built-in packs compiled into the binary plus
//! operator packs loaded from a `--scenario-dir`.
//!
//! Resolution is by name or by path: an argument that looks like a
//! filesystem path (contains a separator or ends in `.json`) is loaded
//! directly, anything else is a registry lookup. Directory packs
//! shadow built-ins of the same name, so an operator can retune a
//! shipped scenario without recompiling.

use std::path::Path;

use crate::error::ScenarioError;
use crate::pack::ScenarioPack;

/// Where a registered pack came from (reported by `--list-scenarios`
/// and `GET /scenarios`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackSource {
    /// Compiled into the binary.
    Builtin,
    /// Loaded from a `--scenario-dir` file.
    Directory,
}

impl PackSource {
    /// The wire name (`builtin` / `directory`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Builtin => "builtin",
            Self::Directory => "directory",
        }
    }
}

/// One registry entry.
#[derive(Debug, Clone)]
pub struct RegisteredPack {
    /// The validated pack.
    pub pack: ScenarioPack,
    /// Built-in or directory-loaded.
    pub source: PackSource,
}

/// The three scenarios every build ships.
const BUILTINS: [&str; 3] = [
    include_str!("../packs/sram-decoder.json"),
    include_str!("../packs/dnn-weight-memory.json"),
    include_str!("../packs/aged-multiplier.json"),
];

/// Name-keyed collection of validated scenario packs.
#[derive(Debug, Clone)]
pub struct ScenarioRegistry {
    /// Sorted by name.
    entries: Vec<RegisteredPack>,
}

impl ScenarioRegistry {
    /// The registry of built-in packs only.
    pub fn builtin() -> Self {
        let mut reg = Self {
            entries: Vec::new(),
        };
        for text in BUILTINS {
            let pack = ScenarioPack::load(text).expect("built-in packs are valid by test");
            reg.insert(pack, PackSource::Builtin);
        }
        reg
    }

    /// The built-in registry plus every `*.json` in `dir`, loaded in
    /// sorted filename order. Directory packs shadow built-ins of the
    /// same name; two directory packs with one name is an error.
    pub fn with_dir(dir: &Path) -> Result<Self, ScenarioError> {
        let mut reg = Self::builtin();
        let io_err = |why: std::io::Error| ScenarioError::Io {
            path: dir.display().to_string(),
            why: why.to_string(),
        };
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(io_err)?
            .collect::<Result<Vec<_>, _>>()
            .map_err(io_err)?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let pack = load_pack_file(&path)?;
            if reg
                .entries
                .iter()
                .any(|e| e.pack.name == pack.name && e.source == PackSource::Directory)
            {
                return Err(ScenarioError::Io {
                    path: path.display().to_string(),
                    why: format!("duplicate scenario name {:?} in directory", pack.name),
                });
            }
            reg.insert(pack, PackSource::Directory);
        }
        Ok(reg)
    }

    /// Adds or shadows an entry, keeping the list sorted by name.
    fn insert(&mut self, pack: ScenarioPack, source: PackSource) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.pack.name == pack.name) {
            *e = RegisteredPack { pack, source };
        } else {
            let at = self.entries.partition_point(|e| e.pack.name < pack.name);
            self.entries.insert(at, RegisteredPack { pack, source });
        }
    }

    /// All entries, sorted by name.
    pub fn entries(&self) -> &[RegisteredPack] {
        &self.entries
    }

    /// All names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.pack.name.clone()).collect()
    }

    /// Looks up a pack by exact name.
    pub fn get(&self, name: &str) -> Option<&RegisteredPack> {
        self.entries.iter().find(|e| e.pack.name == name)
    }

    /// Resolves a CLI/daemon scenario argument: a path-looking string
    /// (`./x.json`, `packs/foo.json`) loads that file, anything else is
    /// a name lookup against the registry.
    pub fn resolve(&self, arg: &str) -> Result<ScenarioPack, ScenarioError> {
        let path_like =
            arg.contains('/') || arg.contains(std::path::MAIN_SEPARATOR) || arg.ends_with(".json");
        if path_like {
            return load_pack_file(Path::new(arg));
        }
        self.get(arg)
            .map(|e| e.pack.clone())
            .ok_or_else(|| ScenarioError::UnknownScenario {
                name: arg.to_string(),
                available: self.names(),
            })
    }
}

/// Loads and validates one pack file.
pub fn load_pack_file(path: &Path) -> Result<ScenarioPack, ScenarioError> {
    let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
        path: path.display().to_string(),
        why: e.to_string(),
    })?;
    ScenarioPack::load(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_load_sorted_and_complete() {
        let reg = ScenarioRegistry::builtin();
        assert_eq!(
            reg.names(),
            ["aged-multiplier", "dnn-weight-memory", "sram-decoder"]
        );
        for e in reg.entries() {
            assert_eq!(e.source, PackSource::Builtin);
            assert!(e.pack.total_elements() > 0);
        }
    }

    #[test]
    fn resolve_by_name_and_unknown_error() {
        let reg = ScenarioRegistry::builtin();
        assert_eq!(reg.resolve("sram-decoder").unwrap().name, "sram-decoder");
        match reg.resolve("no-such") {
            Err(ScenarioError::UnknownScenario { name, available }) => {
                assert_eq!(name, "no-such");
                assert_eq!(available.len(), 3);
            }
            other => panic!("expected UnknownScenario, got {other:?}"),
        }
    }

    #[test]
    fn directory_packs_shadow_builtins() {
        let dir = dh_fault::TempDir::new("scenario-reg");
        let reg = ScenarioRegistry::builtin();
        let mut pack = reg.get("sram-decoder").unwrap().pack.clone();
        pack.epochs = 7;
        std::fs::write(dir.join("override.json"), pack.to_json()).unwrap();
        let merged = ScenarioRegistry::with_dir(&dir).unwrap();
        let e = merged.get("sram-decoder").unwrap();
        assert_eq!(e.source, PackSource::Directory);
        assert_eq!(e.pack.epochs, 7);
        assert_eq!(merged.entries().len(), 3);
        // A path argument bypasses the registry.
        let by_path = merged
            .resolve(dir.join("override.json").to_str().unwrap())
            .unwrap();
        assert_eq!(by_path.epochs, 7);
    }
}
