let current = "1.19.0"
