//! The backend registry: named `Arc<dyn Translator>` instances, in
//! registration order. `t2v-serve` builds one at startup and routes
//! `/v1/translate` by id; the bench binaries build one to sweep backends.

use crate::api::{BackendInfo, Translator};
use std::sync::Arc;

/// A set of named backends. Ids are stable lowercase identifiers
/// (`"gred"`, `"rgvisnet"`, ...) used in URLs, cache keys, and metric
/// labels; display names live in [`BackendInfo::name`].
#[derive(Default, Clone)]
pub struct BackendRegistry {
    backends: Vec<(String, Arc<dyn Translator>)>,
}

impl BackendRegistry {
    pub fn new() -> Self {
        BackendRegistry::default()
    }

    /// Register a backend under `id`. Re-registering an id replaces the old
    /// backend (and returns it) without changing its position.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        backend: Arc<dyn Translator>,
    ) -> Option<Arc<dyn Translator>> {
        let id = id.into();
        if let Some(slot) = self.backends.iter_mut().find(|(k, _)| *k == id) {
            return Some(std::mem::replace(&mut slot.1, backend));
        }
        self.backends.push((id, backend));
        None
    }

    pub fn get(&self, id: &str) -> Option<&Arc<dyn Translator>> {
        self.backends.iter().find(|(k, _)| k == id).map(|(_, b)| b)
    }

    /// The default backend: the first one registered.
    pub fn default_id(&self) -> Option<&str> {
        self.backends.first().map(|(k, _)| k.as_str())
    }

    /// Resolve an optional requested id to `(index, id, backend)`, falling
    /// back to the default. `Err` carries the unknown id.
    pub fn resolve<'a>(
        &'a self,
        requested: Option<&str>,
    ) -> Result<(usize, &'a str, &'a Arc<dyn Translator>), String> {
        match requested {
            None => {
                let (id, b) = self.backends.first().ok_or("<empty registry>")?;
                Ok((0, id.as_str(), b))
            }
            Some(want) => self
                .backends
                .iter()
                .position(|(k, _)| k == want)
                .map(|i| (i, self.backends[i].0.as_str(), &self.backends[i].1))
                .ok_or_else(|| want.to_string()),
        }
    }

    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.backends.iter().map(|(k, _)| k.as_str())
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<dyn Translator>)> {
        self.backends.iter().map(|(k, b)| (k.as_str(), b))
    }

    /// `(id, info)` for every backend, in registration order — the payload
    /// of `GET /v1/backends`.
    pub fn infos(&self) -> Vec<(String, BackendInfo)> {
        self.backends
            .iter()
            .map(|(k, b)| (k.clone(), b.info()))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.backends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::FnBackend;
    use t2v_corpus::{generate, CorpusConfig, Database};

    fn echo(name: &str) -> Arc<dyn Translator> {
        let tag = format!("{name}!");
        Arc::new(FnBackend::new(name, move |_: &str, _: &Database| {
            Some(tag.clone())
        }))
    }

    #[test]
    fn registration_order_and_lookup() {
        let mut reg = BackendRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.register("a", echo("A")).is_none());
        assert!(reg.register("b", echo("B")).is_none());
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.default_id(), Some("a"));
        assert_eq!(reg.ids().collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(reg.get("a").is_some());
        assert!(reg.get("zzz").is_none());
        let infos = reg.infos();
        assert_eq!(infos[0].1.name, "A");
        assert_eq!(infos[1].1.name, "B");
    }

    #[test]
    fn resolve_falls_back_to_default_and_flags_unknowns() {
        let mut reg = BackendRegistry::new();
        reg.register("a", echo("A"));
        reg.register("b", echo("B"));
        let corpus = generate(&CorpusConfig::tiny(7));
        let db = &corpus.databases[0];

        let (i, id, b) = reg.resolve(None).unwrap();
        assert_eq!((i, id), (0, "a"));
        assert_eq!(b.predict("q", db), Some("A!".to_string()));

        let (i, id, b) = reg.resolve(Some("b")).unwrap();
        assert_eq!((i, id), (1, "b"));
        assert_eq!(b.predict("q", db), Some("B!".to_string()));

        assert_eq!(reg.resolve(Some("nope")).map(|_| ()).unwrap_err(), "nope");
    }

    #[test]
    fn reregistering_replaces_in_place() {
        let mut reg = BackendRegistry::new();
        reg.register("a", echo("A"));
        reg.register("b", echo("B"));
        let old = reg.register("a", echo("A2")).expect("old backend returned");
        assert_eq!(old.info().name, "A");
        assert_eq!(reg.ids().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(reg.infos()[0].1.name, "A2");
    }
}
